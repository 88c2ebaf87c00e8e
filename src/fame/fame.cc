#include "fame/fame.hh"

#include <cmath>

#include "ckpt/ckpt_io.hh"
#include "ckpt/ckpt_manager.hh"
#include "common/log.hh"

namespace p5 {

FameRunner::FameRunner(const FameParams &params) : params_(params)
{
    if (params_.minRepetitions == 0)
        fatal("FAME needs at least one repetition");
    if (params_.maiv <= 0.0)
        fatal("FAME MAIV must be positive");
    if (params_.warmupTolerance <= 0.0)
        fatal("FAME warm-up tolerance must be positive");
}

namespace {

/** Tracks a thread's per-repetition IPC between polls. */
struct RepTracker
{
    std::uint64_t lastExecs = 0;
    Cycle lastExecCycle = 0;
    double lastWindowIpc = 0.0;
    bool stable = false;

    /**
     * Update from the core; returns true when at least one new
     * repetition completed since the previous poll.
     */
    bool
    poll(const SmtCore &core, ThreadId tid, double tolerance)
    {
        const std::uint64_t execs = core.executionsOf(tid);
        if (execs == lastExecs)
            return false;
        const Cycle now_cycle = core.lastExecutionCycleOf(tid);
        const std::uint64_t instrs =
            (execs - lastExecs) *
            core.thread(tid).stream().instrsPerExecution();
        const Cycle window = now_cycle - lastExecCycle;
        const double ipc =
            window ? static_cast<double>(instrs) /
                         static_cast<double>(window)
                   : 0.0;
        if (lastWindowIpc > 0.0 && ipc > 0.0) {
            const double delta = std::fabs(ipc - lastWindowIpc) / ipc;
            stable = delta < tolerance;
        }
        lastWindowIpc = ipc;
        lastExecs = execs;
        lastExecCycle = now_cycle;
        return true;
    }
};

} // namespace

FameResult
FameRunner::run(SmtCore &core)
{
    const Cycle start = core.cycle();
    runWarmup(core);
    return measure(core, start);
}

void
FameRunner::runWarmup(SmtCore &core)
{
    std::array<bool, num_hw_threads> present{};
    int num_present = 0;
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        present[static_cast<size_t>(t)] = core.threadAttached(t);
        if (present[static_cast<size_t>(t)])
            ++num_present;
    }
    if (num_present == 0)
        fatal("FAME run with no attached threads");

    const Cycle start = core.cycle();

    // Run until every thread has completed the warm-up repetitions and
    // its per-repetition IPC has stabilized (or the warm-up share of the
    // cycle budget is exhausted).
    std::array<RepTracker, num_hw_threads> trackers{};
    const Cycle warmup_limit = start + params_.maxCycles / 4;
    while (true) {
        core.run(params_.checkPeriod);
        if (hook_)
            hook_(core);
        bool warm = true;
        for (ThreadId t = 0; t < num_hw_threads; ++t) {
            const auto ti = static_cast<size_t>(t);
            if (!present[ti])
                continue;
            trackers[ti].poll(core, t, params_.warmupTolerance);
            if (core.executionsOf(t) < params_.warmupRepetitions ||
                !trackers[ti].stable)
                warm = false;
        }
        if (warm)
            break;
        if (core.cycle() >= warmup_limit) {
            warn("FAME warm-up hit its cycle budget");
            break;
        }
    }
}

FameResult
FameRunner::measure(SmtCore &core, Cycle start)
{
    FameResult res;

    std::array<bool, num_hw_threads> present{};
    int num_present = 0;
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        present[static_cast<size_t>(t)] = core.threadAttached(t);
        if (present[static_cast<size_t>(t)])
            ++num_present;
    }
    if (num_present == 0)
        fatal("FAME run with no attached threads");

    const Cycle limit = start + params_.maxCycles;

    // Snapshot each thread at its last completed-repetition boundary and
    // account only full repetitions after the snapshot.
    struct Base
    {
        std::uint64_t execs = 0;
        Cycle cycle = 0;
    };
    std::array<Base, num_hw_threads> base{};
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<size_t>(t);
        if (!present[ti])
            continue;
        base[ti].execs = core.executionsOf(t);
        base[ti].cycle = core.lastExecutionCycleOf(t);
    }

    // Accumulated-average IPC history per thread: (reps, avg) samples,
    // appended whenever the repetition count advances. Convergence
    // compares the current accumulated average against the one recorded
    // at half as many repetitions — this catches both slow drift and
    // slow oscillations (e.g. GCT-occupancy beats) that fool a simple
    // consecutive-poll check.
    std::array<std::vector<std::pair<std::uint64_t, double>>,
               num_hw_threads>
        history{};
    std::array<bool, num_hw_threads> converged{};

    while (true) {
        core.run(params_.checkPeriod);
        if (hook_)
            hook_(core);

        bool all_done = true;
        for (ThreadId t = 0; t < num_hw_threads; ++t) {
            const auto ti = static_cast<size_t>(t);
            if (!present[ti])
                continue;
            const std::uint64_t reps =
                core.executionsOf(t) - base[ti].execs;
            if (reps < params_.minRepetitions) {
                all_done = false;
                continue;
            }
            const Cycle acc =
                core.lastExecutionCycleOf(t) - base[ti].cycle;
            const double avg =
                acc ? static_cast<double>(
                          reps * core.thread(t).stream()
                                     .instrsPerExecution()) /
                          static_cast<double>(acc)
                    : 0.0;
            auto &hist = history[ti];
            if (hist.empty() || hist.back().first != reps)
                hist.emplace_back(reps, avg);

            // Accumulated average at <= reps/2 repetitions.
            double half_avg = 0.0;
            for (const auto &[r, a] : hist) {
                if (r * 2 > reps)
                    break;
                half_avg = a;
            }
            converged[ti] = avg > 0.0 && half_avg > 0.0 &&
                            std::fabs(avg - half_avg) / avg <
                                params_.maiv;
            if (!converged[ti])
                all_done = false;
        }

        if (all_done) {
            res.converged = true;
            break;
        }
        if (core.cycle() >= limit) {
            res.hitCycleLimit = true;
            warn("FAME hit the cycle guard before convergence");
            break;
        }
    }

    res.totalCycles = core.cycle() - start;
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<size_t>(t);
        if (!present[ti])
            continue;
        ThreadMeasurement &m = res.thread[ti];
        m.present = true;
        m.executions = core.executionsOf(t) - base[ti].execs;
        m.accountedCycles =
            core.lastExecutionCycleOf(t) - base[ti].cycle;
        m.accountedInstrs =
            m.executions *
            core.thread(t).stream().instrsPerExecution();
    }
    return res;
}

void
FameRunner::warmOrFork(SmtCore &core, CkptManager *ckpts,
                       const std::string &warm_key)
{
    if (!ckpts) {
        runWarmup(core);
        return;
    }
    if (warm_key.empty())
        fatal("FAME: checkpointing requires a warm key");

    const CkptManager::Acquired acq =
        ckpts->acquire(warm_key, [&]() -> Checkpoint {
            runWarmup(core);
            Checkpoint ck;
            ck.warmKey = warm_key;
            ck.fingerprint = ckptFingerprintHex(warm_key);
            ck.warmCycles = core.cycle();
            CkptWriter w;
            core.saveState(w);
            ck.state = w.data();
            return ck;
        });
    if (!acq.created) {
        // Fork: adopt a sibling's (or the store's) warm image instead
        // of simulating the warm-up.
        CkptReader r(acq.ckpt->state);
        core.restoreState(r);
        r.expectEnd();
    }
}

FameResult
runFame(const CoreParams &core_params, const InstrSource *prog_p,
        const InstrSource *prog_s, int prio_p, int prio_s,
        const FameParams &fame_params, CkptManager *ckpts,
        const std::string &warm_key,
        const std::function<void(const SmtCore &)> &inspect)
{
    if (!prog_p)
        fatal("runFame: primary program is required");

    // Warm under the canonical priorities so the warm phase depends only
    // on the warm key; the measured pair is applied at the boundary (see
    // canonical_warm_priority). Fresh cores start at cycle 0, which is
    // the anchor measure() expects whether the warm state was simulated
    // here or restored from a checkpoint.
    SmtCore core(core_params);
    core.attachThread(0, prog_p, canonical_warm_priority);
    if (prog_s)
        core.attachThread(1, prog_s, canonical_warm_priority);

    FameRunner runner(fame_params);
    runner.warmOrFork(core, ckpts, warm_key);
    core.setPriorityPair(prio_p, prog_s ? prio_s : 0);
    const FameResult result = runner.measure(core, 0);
    if (inspect)
        inspect(core);
    return result;
}

} // namespace p5
