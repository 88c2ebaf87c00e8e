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
#include "fame/fame.hh"
#include "os/kernel.hh"
#include "test_helpers.hh"
#include "ubench/ubench.hh"
#include "workloads/pipeline_app.hh"

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
 * and snapshot everything a caller can observe.
 */
RunSnapshot
runPair(const SyntheticProgram &prog, int prio_p, int prio_s,
        bool fast_forward, bool armed, Cycle cycles)
{
    CoreParams params;
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
 */
TEST(FastForward, BitIdenticalStatsAcrossAllPriorityPairs)
{
    constexpr Cycle run_cycles = 2500;
    for (UbenchId id : presentedUbench()) {
        const SyntheticProgram prog = makeUbench(id, 0.25);
        for (int prio_p = 1; prio_p <= 6; ++prio_p) {
            for (int prio_s = 1; prio_s <= 6; ++prio_s) {
                const std::string label =
                    std::string(ubenchName(id)) + " (" +
                    std::to_string(prio_p) + "," +
                    std::to_string(prio_s) + ")";
                RunSnapshot slow = runPair(prog, prio_p, prio_s,
                                           false, false, run_cycles);
                RunSnapshot fast = runPair(prog, prio_p, prio_s,
                                           true, false, run_cycles);
                expectIdentical(fast, slow, label);
            }
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
