#include "fame/fame.hh"

#include <algorithm>
#include <cmath>

#include "ckpt/ckpt_io.hh"
#include "ckpt/ckpt_manager.hh"
#include "common/log.hh"
#include "fame/period_skip.hh"

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

namespace {

/**
 * FAME's measurement state and the poll body. A poll reads only each
 * thread's executions and the end of its last one (a PollView), so the
 * same body runs on what the core holds and on what a confirmed period
 * says it would hold (PeriodDetector::viewAt()).
 */
class Measurement
{
  public:
    Measurement(const FameParams &params, const SmtCore &core)
        : params_(params), base_(pollViewOf(core))
    {
        for (ThreadId t = 0; t < num_hw_threads; ++t) {
            const auto ti = static_cast<std::size_t>(t);
            present_[ti] = core.threadAttached(t);
            if (present_[ti])
                instrsPerExec_[ti] =
                    core.thread(t).stream().instrsPerExecution();
        }
    }

    bool present(std::size_t t) const { return present_[t]; }

    /** Account the poll of @p v; true once every thread converged. */
    bool
    poll(const PollView &v)
    {
        bool all_done = true;
        for (std::size_t t = 0; t < num_hw_threads; ++t) {
            if (!present_[t])
                continue;
            const std::uint64_t reps = v.execs[t] - base_.execs[t];
            if (reps < params_.minRepetitions) {
                all_done = false;
                continue;
            }
            const Cycle acc = v.last[t] - base_.last[t];
            const double avg =
                acc ? static_cast<double>(reps * instrsPerExec_[t]) /
                          static_cast<double>(acc)
                    : 0.0;
            auto &hist = history_[t];
            if (hist.empty() || hist.back().first != reps)
                hist.emplace_back(reps, avg);

            // Accumulated average at <= reps/2 repetitions; the history
            // is sorted by repetitions.
            const auto half = std::upper_bound(
                hist.begin(), hist.end(), reps,
                [](std::uint64_t r, const auto &h) {
                    return r < h.first * 2;
                });
            const double half_avg =
                half == hist.begin() ? 0.0 : std::prev(half)->second;
            const bool converged = avg > 0.0 && half_avg > 0.0 &&
                                   std::fabs(avg - half_avg) / avg <
                                       params_.maiv;
            if (!converged)
                all_done = false;
        }
        return all_done;
    }

    /** The measurement of thread @p t when the core reads @p v. */
    ThreadMeasurement
    result(std::size_t t, const PollView &v) const
    {
        ThreadMeasurement m;
        m.present = true;
        m.executions = v.execs[t] - base_.execs[t];
        m.accountedCycles = v.last[t] - base_.last[t];
        m.accountedInstrs = m.executions * instrsPerExec_[t];
        return m;
    }

  private:
    const FameParams &params_;

    /** Each thread at its last completed-repetition boundary: only full
     *  repetitions after it are accounted. */
    PollView base_;
    std::array<bool, num_hw_threads> present_{};
    std::array<std::uint64_t, num_hw_threads> instrsPerExec_{};

    /**
     * Accumulated-average IPC history per thread: (reps, avg) samples,
     * appended whenever the repetition count advances. Convergence
     * compares the current accumulated average against the one
     * recorded at half as many repetitions — this catches both slow
     * drift and slow oscillations (e.g. GCT-occupancy beats) that fool
     * a simple consecutive-poll check.
     */
    std::array<std::vector<std::pair<std::uint64_t, double>>,
               num_hw_threads>
        history_{};
};

/**
 * A period is confirmed at the core's current cycle: compute the polls
 * from @p poll_at on, on a copy of @p m, up to the one that stops the
 * measurement (convergence or @p limit). Jump the core over the whole
 * periods before that poll, account the polls it crossed in @p m, and
 * return the first poll the core must simulate to.
 */
Cycle
skipPeriods(SmtCore &core, Measurement &m, const PeriodDetector &period,
            Cycle poll_at, Cycle check_period, Cycle limit)
{
    Measurement ahead = m;
    Cycle stop_at = poll_at;
    while (!ahead.poll(period.viewAt(stop_at)) && stop_at < limit)
        stop_at += check_period;
    const std::uint64_t k =
        (stop_at - period.b().cycle) / period.periodCycles();
    if (k == 0)
        return poll_at;
    const Cycle land = period.b().cycle + k * period.periodCycles();
    for (; poll_at < land; poll_at += check_period)
        m.poll(period.viewAt(poll_at));
    core.jumpPeriods(k, period.a(), period.b());
    return poll_at;
}

} // namespace

FameResult
FameRunner::measure(SmtCore &core, Cycle start)
{
    FameResult res;

    int num_present = 0;
    for (ThreadId t = 0; t < num_hw_threads; ++t)
        num_present += core.threadAttached(t);
    if (num_present == 0)
        fatal("FAME run with no attached threads");

    const Cycle limit = start + params_.maxCycles;
    Measurement m(params_, core);

    // Polls fall on a fixed grid of checkPeriod cycles from here. With
    // the period skip the core also stops at every execution boundary
    // until a period is confirmed; a chunk hook sees every chunk, so it
    // turns the skip off.
    PeriodDetector period(core, !hook_);
    const std::uint64_t jumped_before = core.periodCyclesSkipped();
    bool jumped = false;
    Cycle poll_at = core.cycle();
    while (true) {
        poll_at = saturatingAdd(poll_at, params_.checkPeriod);
        while (period.active() &&
               core.runUntil(poll_at,
                             [&] { return period.boundary(core); })) {
            if (!period.onBoundary(core))
                continue;
            poll_at = skipPeriods(core, m, period, poll_at,
                                  params_.checkPeriod, limit);
            jumped = core.periodCyclesSkipped() != jumped_before;
            period.stop();
        }
        core.runUntil(poll_at, [] { return false; });
        if (hook_)
            hook_(core);

        const PollView view = pollViewOf(core);
        if (jumped && view != period.viewAt(core.cycle()))
            panic("period skip: the poll at cycle %llu differs from the "
                  "one the period predicted",
                  static_cast<unsigned long long>(core.cycle()));
        if (m.poll(view)) {
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
    const PollView view = pollViewOf(core);
    for (std::size_t t = 0; t < num_hw_threads; ++t)
        if (m.present(t))
            res.thread[t] = m.result(t, view);
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
