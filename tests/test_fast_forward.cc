/**
 * @file
 * Equivalence suite for the idle-cycle fast-forward engine.
 *
 * The engine's contract is that every observable — the cycle count,
 * every registered stat, and the per-thread committed/execution
 * totals — is bit-identical whether the core ticks every cycle or
 * jumps over verified-idle gaps. These tests enforce the contract
 * over the paper's six presented micro-benchmarks and all 36
 * software-priority pairs, with and without the fatal p5check
 * invariant suite armed.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/smt_core.hh"
#include "exp/experiments.hh"
#include "fame/fame.hh"
#include "os/kernel.hh"
#include "test_helpers.hh"
#include "ubench/ubench.hh"
#include "workloads/pipeline_app.hh"
#include "workloads/spec_proxy.hh"

namespace p5 {
namespace {

struct RunSnapshot
{
    Cycle cycle = 0;
    std::map<std::string, double> stats;
    std::array<std::uint64_t, num_hw_threads> committed{};
    std::array<std::uint64_t, num_hw_threads> executions{};
    std::uint64_t idleSkipped = 0;
};

/** Everything a caller can observe of @p core. */
RunSnapshot
snapshot(const SmtCore &core)
{
    RunSnapshot snap;
    snap.cycle = core.cycle();
    for (const std::string &name : core.stats().names())
        snap.stats.emplace(name, core.stats().value(name));
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        snap.committed[static_cast<size_t>(t)] = core.committedOf(t);
        snap.executions[static_cast<size_t>(t)] = core.executionsOf(t);
    }
    snap.idleSkipped = core.idleCyclesSkipped();
    return snap;
}

/**
 * Run @p prog against itself for @p cycles at the given priority pair
 * on a core built from @p params and snapshot everything a caller can
 * observe.
 */
RunSnapshot
runPair(const SyntheticProgram &prog, int prio_p, int prio_s,
        bool fast_forward, bool armed, Cycle cycles,
        CoreParams params = {})
{
    params.fastForward = fast_forward;
    SmtCore core(params);
    if (armed)
        test::withCheckers(core);
    core.attachThread(0, &prog, prio_p);
    core.attachThread(1, &prog, prio_s);
    core.run(cycles);
    return snapshot(core);
}

void
expectIdentical(const RunSnapshot &fast, const RunSnapshot &slow,
                const std::string &label)
{
    EXPECT_EQ(fast.cycle, slow.cycle) << label;
    ASSERT_EQ(fast.stats.size(), slow.stats.size()) << label;
    for (const auto &[name, value] : slow.stats) {
        auto it = fast.stats.find(name);
        ASSERT_NE(it, fast.stats.end()) << label << " missing " << name;
        EXPECT_EQ(it->second, value) << label << " stat " << name;
    }
    for (size_t t = 0; t < num_hw_threads; ++t) {
        EXPECT_EQ(fast.committed[t], slow.committed[t])
            << label << " committed thread " << t;
        EXPECT_EQ(fast.executions[t], slow.executions[t])
            << label << " executions thread " << t;
    }
    EXPECT_EQ(slow.idleSkipped, 0u) << label;
}

/**
 * The headline equivalence sweep: six benchmarks x 36 priority pairs,
 * fast-forward on vs off, every registered stat compared bit-exact.
 * Besides the default core it covers the probe's two non-default
 * decode branches: the balancer's flush action (the probe's
 * flush-drop check) and work-conserving slots (the reassignment
 * branch of the shared grant rule, DecodeArbiter::wouldGrant). Each
 * such variant must take its branch, shown by its stat, in some run
 * that also skipped.
 */
TEST(FastForward, BitIdenticalStatsAcrossAllPriorityPairs)
{
    constexpr Cycle run_cycles = 2500;
    struct Variant
    {
        const char *name;
        CoreParams params;
        const char *branchStat; ///< suffix of the stat the branch counts
    };
    Variant variants[] = {
        {"default", {}, nullptr},
        {"flush", {}, ".flushes"},
        {"work-conserving", {}, ".slotsReassigned"},
    };
    variants[1].params.balancer.action = BalanceAction::Flush;
    variants[2].params.workConservingSlots = true;

    for (const Variant &v : variants) {
        int branch_and_skip = 0;
        for (UbenchId id : presentedUbench()) {
            const SyntheticProgram prog = makeUbench(id, 0.25);
            for (int prio_p = 1; prio_p <= 6; ++prio_p) {
                for (int prio_s = 1; prio_s <= 6; ++prio_s) {
                    const std::string label =
                        std::string(v.name) + " " + ubenchName(id) +
                        " (" + std::to_string(prio_p) + "," +
                        std::to_string(prio_s) + ")";
                    RunSnapshot slow =
                        runPair(prog, prio_p, prio_s, false, false,
                                run_cycles, v.params);
                    RunSnapshot fast =
                        runPair(prog, prio_p, prio_s, true, false,
                                run_cycles, v.params);
                    expectIdentical(fast, slow, label);
                    if (!v.branchStat || fast.idleSkipped == 0)
                        continue;
                    for (const auto &[name, value] : slow.stats)
                        if (name.ends_with(v.branchStat) && value > 0) {
                            ++branch_and_skip;
                            break;
                        }
                }
            }
        }
        if (v.branchStat) {
            EXPECT_GT(branch_and_skip, 0) << v.name;
        }
    }
}

/**
 * Same sweep with the fatal p5check suite armed on the fast-forwarded
 * core: the skip-aware checkers independently verify each bulk jump
 * (no decode activity, exact forfeit conservation) and panic on any
 * deviation. All six presented benchmarks cover all 36 pairs, so the
 * adaptive probe policy is exercised across the whole spectrum from
 * compute-bound (probes rarely arm) to DRAM-bound (probes arm and
 * skip constantly).
 */
TEST(FastForward, SkipAwareCheckersAcceptAllPriorityPairs)
{
    constexpr Cycle run_cycles = 2500;
    for (UbenchId id : presentedUbench()) {
        const SyntheticProgram prog = makeUbench(id, 0.25);
        for (int prio_p = 1; prio_p <= 6; ++prio_p) {
            for (int prio_s = 1; prio_s <= 6; ++prio_s) {
                const std::string label =
                    std::string(ubenchName(id)) + " armed (" +
                    std::to_string(prio_p) + "," +
                    std::to_string(prio_s) + ")";
                RunSnapshot slow = runPair(prog, prio_p, prio_s,
                                           false, true, run_cycles);
                RunSnapshot fast = runPair(prog, prio_p, prio_s,
                                           true, true, run_cycles);
                expectIdentical(fast, slow, label);
            }
        }
    }
}

/** Every presented benchmark also passes armed at the default pair. */
TEST(FastForward, SkipAwareCheckersAcceptAllBenchmarks)
{
    constexpr Cycle run_cycles = 2500;
    for (UbenchId id : presentedUbench()) {
        const SyntheticProgram prog = makeUbench(id, 0.25);
        RunSnapshot slow = runPair(prog, 4, 4, false, true, run_cycles);
        RunSnapshot fast = runPair(prog, 4, 4, true, true, run_cycles);
        expectIdentical(fast, slow, std::string(ubenchName(id)) +
                                        " armed (4,4)");
    }
}

/**
 * FAME-level equivalence: the full convergence loop (warmup detection,
 * repetition accounting, MAIV convergence) lands on exactly the same
 * measurement with fast-forward on and off.
 */
TEST(FastForward, FameRunsAreEquivalent)
{
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem, 0.25);
    FameParams fame;
    fame.minRepetitions = 3;
    fame.warmupRepetitions = 1;
    fame.maxCycles = 2'000'000;

    CoreParams fast_params;
    fast_params.fastForward = true;
    CoreParams slow_params;
    slow_params.fastForward = false;

    FameResult fast = runFame(fast_params, &prog, &prog, 4, 4, fame);
    FameResult slow = runFame(slow_params, &prog, &prog, 4, 4, fame);

    EXPECT_EQ(fast.totalCycles, slow.totalCycles);
    EXPECT_EQ(fast.converged, slow.converged);
    EXPECT_EQ(fast.hitCycleLimit, slow.hitCycleLimit);
    for (size_t t = 0; t < num_hw_threads; ++t) {
        EXPECT_EQ(fast.thread[t].present, slow.thread[t].present);
        EXPECT_EQ(fast.thread[t].executions, slow.thread[t].executions);
        EXPECT_EQ(fast.thread[t].accountedCycles,
                  slow.thread[t].accountedCycles);
        EXPECT_EQ(fast.thread[t].accountedInstrs,
                  slow.thread[t].accountedInstrs);
    }
}

/**
 * The FFT -> LU pipeline advances by stop predicate ("a stage just
 * reached the barrier") and parks the finished stage at priority 0,
 * leaving its sibling in ST mode: a mode the pair sweep never enters.
 * Both Table 4 drivers must land on the same result and the same core
 * stats with fast-forward on and off, for each stage finishing first.
 */
TEST(FastForward, PipelineRunsAreEquivalent)
{
    for (const auto &[prio_fft, prio_lu] :
         {std::pair{4, 4}, std::pair{6, 3}, std::pair{2, 6}}) {
        PipelineParams pp;
        pp.iterations = 2;
        pp.scale = 0.1;
        pp.prioFft = prio_fft;
        pp.prioLu = prio_lu;
        const PipelineApp app(pp);
        const std::string label = "pipeline (" + std::to_string(prio_fft) +
                                  "," + std::to_string(prio_lu) + ")";

        for (const bool smt : {true, false}) {
            std::vector<RunSnapshot> cores[2];
            PipelineResult res[2];
            for (const bool fast_forward : {false, true}) {
                CoreParams params;
                params.fastForward = fast_forward;
                const auto keep = [&](const SmtCore &core) {
                    cores[fast_forward].push_back(snapshot(core));
                };
                res[fast_forward] = smt ? app.runSmt(params, keep)
                                        : app.runSingleThread(params, keep);
            }
            const std::string what = label + (smt ? " smt" : " st");
            EXPECT_EQ(res[1].fftCycles, res[0].fftCycles) << what;
            EXPECT_EQ(res[1].luCycles, res[0].luCycles) << what;
            EXPECT_EQ(res[1].iterationCycles, res[0].iterationCycles)
                << what;
            EXPECT_EQ(res[1].hitCycleLimit, res[0].hitCycleLimit) << what;
            ASSERT_EQ(cores[0].size(), smt ? 1u : 2u) << what;
            ASSERT_EQ(cores[1].size(), cores[0].size()) << what;
            for (std::size_t c = 0; c < cores[0].size(); ++c)
                expectIdentical(cores[1][c], cores[0][c], what);
            EXPECT_GT(cores[1][0].idleSkipped, 0u) << what;
        }
    }
}

/**
 * The kernel model runs the core from one timer edge to the next and
 * rewrites priorities at each interrupt. Interrupt and reset counts and
 * every core stat must match ticking, for the stock and patched kernel
 * and for run() slices that end between edges.
 */
TEST(FastForward, KernelRunsAreEquivalent)
{
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem, 0.25);
    for (const bool patched : {false, true}) {
        RunSnapshot snap[2];
        std::uint64_t irqs[2];
        std::uint64_t resets[2];
        for (const bool fast_forward : {false, true}) {
            CoreParams params;
            params.fastForward = fast_forward;
            SmtCore core(params);
            core.attachThread(0, &prog, 6);
            core.attachThread(1, &prog, 3);
            KernelParams kp;
            kp.patched = patched;
            kp.timerPeriod = 1500;
            KernelSim kernel(&core, kp);
            kernel.run(2345);
            kernel.sysSetPriority(0, 2);
            kernel.run(6000);
            snap[fast_forward] = snapshot(core);
            irqs[fast_forward] = kernel.timerInterrupts();
            resets[fast_forward] = kernel.priorityResets();
        }
        const std::string label = patched ? "patched" : "stock";
        expectIdentical(snap[1], snap[0], label);
        EXPECT_EQ(irqs[1], irqs[0]) << label;
        EXPECT_EQ(resets[1], resets[0]) << label;
        EXPECT_EQ(irqs[0], 5u) << label;
        EXPECT_EQ(resets[0], patched ? 0u : 3u) << label;
        EXPECT_GT(snap[1].idleSkipped, 0u) << label;
    }
}

/**
 * runUntilExecutions(max_cycles = never_cycle) used to overflow the
 * deadline (cycle_ + max_cycles wrapped) and return immediately; the
 * saturated limit must let the run proceed to the target.
 */
TEST(FastForward, RunUntilExecutionsSaturatesMaxCycles)
{
    const SyntheticProgram prog = test::independentAlus(1000);
    SmtCore core{CoreParams{}};
    core.attachThread(0, &prog, 4);
    EXPECT_TRUE(core.runUntilExecutions(0, 100, never_cycle));
    EXPECT_GE(core.executionsOf(0), 100u);

    // Also from a non-zero starting cycle (the wrap that bit).
    SmtCore core2{CoreParams{}};
    core2.attachThread(0, &prog, 4);
    core2.run(50);
    EXPECT_TRUE(core2.runUntilExecutions(0, 100, never_cycle));
}

/**
 * Sanity: on a DRAM-bound pair most cycles are idle waits, so the
 * engine must actually skip a majority of them (this is where the
 * wall-clock win comes from).
 */
TEST(FastForward, SkipsMajorityOfMemoryBoundCycles)
{
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem, 0.25);
    CoreParams params;
    SmtCore core(params);
    core.attachThread(0, &prog, 4);
    core.attachThread(1, &prog, 4);
    core.run(20000);
    EXPECT_GT(core.idleCyclesSkipped(), 10000u);
}

/**
 * Adaptive probing: a compute-bound pair keeps the core busy nearly
 * every cycle, so the probe should almost never arm — the overhaul's
 * whole point is that busy runs no longer pay a per-cycle gate replay.
 * The memory-bound pair from SkipsMajorityOfMemoryBoundCycles still
 * probes (and skips) constantly, pinning the other end.
 */
TEST(FastForward, BusyWorkloadRarelyProbes)
{
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt, 0.25);
    CoreParams params;
    SmtCore core(params);
    core.attachThread(0, &prog, 4);
    core.attachThread(1, &prog, 4);
    core.run(20000);
    // Well under the one-probe-per-cycle of the pre-adaptive engine;
    // the streak hysteresis keeps 1-2 cycle bubbles from arming at all.
    EXPECT_LT(core.fastForwardProbes(), 2000u);
    EXPECT_EQ(core.idleCyclesSkipped(), 0u);
}

/** Memory-bound runs skip far more cycles than they spend probing. */
TEST(FastForward, MemoryBoundProbesPayForThemselves)
{
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem, 0.25);
    CoreParams params;
    SmtCore core(params);
    core.attachThread(0, &prog, 4);
    core.attachThread(1, &prog, 4);
    core.run(20000);
    EXPECT_GT(core.idleCyclesSkipped(), 10000u);
    EXPECT_GT(core.idleCyclesSkipped(), 4 * core.fastForwardProbes());
}

/**
 * Mispredict-heavy equivalence (the memoized re-fetch path): br_miss
 * squashes and rewinds the stream constantly, so every re-fetch runs
 * through the stream's cursor reposition and the pre-decoded table.
 * Stats must stay bit-identical between engine modes, armed included.
 */
TEST(FastForward, MispredictHeavyReplayIsBitIdentical)
{
    constexpr Cycle run_cycles = 10000;
    const SyntheticProgram prog = makeUbench(UbenchId::BrMiss, 0.25);
    RunSnapshot slow = runPair(prog, 4, 4, false, true, run_cycles);
    RunSnapshot fast = runPair(prog, 4, 4, true, true, run_cycles);
    expectIdentical(fast, slow, "br_miss armed (4,4)");
    // The run must actually exercise the squash/rewind machinery.
    EXPECT_GT(slow.stats.at("thread0.mispredicts"), 0.0);
    EXPECT_GT(slow.stats.at("thread0.squashed"), 0.0);
}

/** A FAME run's result, its core's observables and its period jumps. */
struct FameSnapshot
{
    FameResult result;
    RunSnapshot core;
    std::uint64_t jumped = 0;
};

FameSnapshot
fameRun(const InstrSource &prog_p, const InstrSource &prog_s, int prio_p,
        int prio_s, bool fast_forward,
        const FameParams &fame = ExpConfig::fast().fame)
{
    CoreParams params;
    params.fastForward = fast_forward;
    FameSnapshot out;
    out.result = runFame(params, &prog_p, &prog_s, prio_p, prio_s, fame,
                         nullptr, "",
                         [&out](const SmtCore &core) {
                             out.core = snapshot(core);
                             out.jumped = core.periodCyclesSkipped();
                         });
    return out;
}

void
expectSameFame(const FameSnapshot &fast, const FameSnapshot &slow,
               const std::string &label)
{
    expectIdentical(fast.core, slow.core, label);
    EXPECT_EQ(slow.jumped, 0u) << label;
    EXPECT_EQ(fast.result.totalCycles, slow.result.totalCycles) << label;
    EXPECT_EQ(fast.result.converged, slow.result.converged) << label;
    for (size_t t = 0; t < num_hw_threads; ++t) {
        const ThreadMeasurement &f = fast.result.thread[t];
        const ThreadMeasurement &s = slow.result.thread[t];
        EXPECT_EQ(f.executions, s.executions) << label << " thread " << t;
        EXPECT_EQ(f.accountedCycles, s.accountedCycles)
            << label << " thread " << t;
        EXPECT_EQ(f.accountedInstrs, s.accountedInstrs)
            << label << " thread " << t;
    }
}

/**
 * The period skip (DESIGN §7): on pairs whose core state recurs during
 * measurement, FAME jumps whole periods, and every stat and the FAME
 * result still equal a run that ticks every cycle. The --fast FAME
 * parameters end cpu_int+ldint_l1@6,4 before its period is confirmed,
 * so that pair runs at the default ones.
 */
TEST(FastForward, PeriodSkipIsBitIdenticalWhereTheStateRecurs)
{
    const double scale = ExpConfig::fast().ubenchScale;
    const SyntheticProgram cpu = makeUbench(UbenchId::CpuInt, scale);
    const SyntheticProgram l1 = makeUbench(UbenchId::LdintL1, scale);
    const SyntheticProgram h264 =
        makeSpecProxy(SpecProxyId::H264ref, scale);
    const SyntheticProgram mcf = makeSpecProxy(SpecProxyId::Mcf, scale);
    const FameParams fast_fame = ExpConfig::fast().fame;
    struct Case
    {
        const SyntheticProgram *p, *s;
        int prioP, prioS;
        FameParams fame;
    };
    for (const Case &c : {Case{&cpu, &cpu, 4, 4, fast_fame},
                          Case{&cpu, &l1, 6, 4, FameParams{}},
                          Case{&h264, &mcf, 5, 4, fast_fame}}) {
        const std::string label = c.p->name() + "+" + c.s->name() + "@" +
                                  std::to_string(c.prioP) + "," +
                                  std::to_string(c.prioS);
        const FameSnapshot fast =
            fameRun(*c.p, *c.s, c.prioP, c.prioS, true, c.fame);
        const FameSnapshot slow =
            fameRun(*c.p, *c.s, c.prioP, c.prioS, false, c.fame);
        EXPECT_GT(fast.jumped, 0u) << label;
        expectSameFame(fast, slow, label);
    }
}

/**
 * A state that recurs right after the warm-up is found from the
 * measurement's first reference boundary: cpu_int+ldint_l1@2,6 at the
 * default FAME parameters (full scale) measures only 32 executions of
 * its slow thread, so the period must be confirmed within the first of
 * them; it jumps about half of its measurement and still equals a run
 * that ticks every cycle.
 */
TEST(FastForward, PeriodSkipFindsARecurrenceRightAfterTheWarmUp)
{
    const SyntheticProgram cpu = makeUbench(UbenchId::CpuInt);
    const SyntheticProgram l1 = makeUbench(UbenchId::LdintL1);
    const FameSnapshot fast = fameRun(cpu, l1, 2, 6, true, FameParams{});
    const FameSnapshot slow = fameRun(cpu, l1, 2, 6, false, FameParams{});
    EXPECT_GE(fast.jumped, 600'000u);
    expectSameFame(fast, slow, "cpu_int+ldint_l1@2,6");
}

/**
 * A recurrence that sets in well after the measurement starts is
 * confirmed from an anchor of the power-of-two ladder: applu+equake@5,4
 * at the --fast FAME parameters is in the same state at steps 4 and 16
 * (a step is 16 executions of equake, the reference thread), so the
 * step-4 anchor confirms at step 16; confirmed one period later (B at
 * step 28), the run would jump only 2,001,096 cycles. It still equals a
 * run that ticks every cycle.
 */
TEST(FastForward, PeriodSkipAnchorsInsideALateRecurrence)
{
    const double scale = ExpConfig::fast().ubenchScale;
    const SyntheticProgram applu =
        makeSpecProxy(SpecProxyId::Applu, scale);
    const SyntheticProgram equake =
        makeSpecProxy(SpecProxyId::Equake, scale);
    const FameParams fame = ExpConfig::fast().fame;
    const FameSnapshot fast = fameRun(applu, equake, 5, 4, true, fame);
    const FameSnapshot slow = fameRun(applu, equake, 5, 4, false, fame);
    EXPECT_GT(fast.jumped, 2'001'096u);
    expectSameFame(fast, slow, "applu+equake@5,4");
}

/**
 * Where the state never recurs the skip never jumps: br_miss draws
 * random branch directions (an aperiodic source), and ldint_mem sweeps
 * 64 MiB, whose addresses, and with them the L3 tags, come back only
 * after thousands of executions (past PeriodDetector's
 * max_source_period), although its per-execution statistics repeat.
 */
TEST(FastForward, PeriodSkipNeverJumpsWithoutARecurrence)
{
    const double scale = ExpConfig::fast().ubenchScale;
    const SyntheticProgram br = makeUbench(UbenchId::BrMiss, scale);
    const SyntheticProgram mem = makeUbench(UbenchId::LdintMem, scale);
    for (const SyntheticProgram *prog : {&br, &mem}) {
        const FameSnapshot fast = fameRun(*prog, *prog, 4, 4, true);
        const FameSnapshot slow = fameRun(*prog, *prog, 4, 4, false);
        EXPECT_EQ(fast.jumped, 0u) << prog->name();
        expectSameFame(fast, slow, prog->name());
    }
}

/** The escape hatch really disables the engine. */
TEST(FastForward, KnobDisablesSkipping)
{
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem, 0.25);
    CoreParams params;
    params.fastForward = false;
    SmtCore core(params);
    core.attachThread(0, &prog, 4);
    core.attachThread(1, &prog, 4);
    core.run(20000);
    EXPECT_EQ(core.idleCyclesSkipped(), 0u);
}

} // namespace
} // namespace p5
