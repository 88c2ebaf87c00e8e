/**
 * @file
 * SMT-mode tests of the core: slot sharing, priority monotonicity,
 * minority floors, work-conserving ablation, balancer interplay.
 */

#include <gtest/gtest.h>

#include "ckpt/ckpt_io.hh"
#include "core/chip.hh"
#include "core/smt_core.hh"
#include "test_helpers.hh"
#include "ubench/ubench.hh"

namespace p5 {
namespace {

double
pairIpc(const CoreParams &params, const SyntheticProgram &p,
        const SyntheticProgram &s, int prio_p, int prio_s, Cycle cycles,
        ThreadId measure = 0)
{
    SmtCore core(params);
    test::withCheckers(core);
    core.attachThread(0, &p, prio_p);
    core.attachThread(1, &s, prio_s);
    core.run(cycles);
    return core.ipcOf(measure);
}

TEST(CoreSmt, EqualPrioritiesHalveDecodeBoundThreads)
{
    CoreParams params;
    auto p = test::nops();
    auto s = test::nops();
    double smt = pairIpc(params, p, s, 4, 4, 3000);
    SmtCore st(params);
    test::withCheckers(st);
    auto solo = test::nops();
    st.attachThread(0, &solo);
    st.run(3000);
    EXPECT_NEAR(smt, st.ipcOf(0) / 2.0, 0.3);
}

TEST(CoreSmt, HigherPriorityGetsMoreDecode)
{
    CoreParams params;
    auto p = test::nops();
    auto s = test::nops();
    double base = pairIpc(params, p, s, 4, 4, 5000);
    double boosted = pairIpc(params, p, s, 6, 2, 5000);
    EXPECT_GT(boosted, 1.5 * base);
}

/** Property: decode-bound PThread IPC is monotone in priority diff. */
class PrioMonotonicityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PrioMonotonicityTest, MinorityFloorMatchesFormula)
{
    const int diff = GetParam();
    CoreParams params;
    auto p = test::nops();
    auto s = test::nops();
    // PThread is the minority at -diff: its ceiling is
    // minoritySlotWidth per R cycles.
    const int r = 1 << (diff + 1);
    double ipc = pairIpc(params, p, s, 4 - diff >= 1 ? 4 - diff : 1,
                         4 - diff >= 1 ? 4 : 1 + diff, 40000);
    const double floor_ipc =
        static_cast<double>(params.minoritySlotWidth) / r;
    EXPECT_LE(ipc, floor_ipc * 1.15);
    EXPECT_GE(ipc, floor_ipc * 0.7);
}

INSTANTIATE_TEST_SUITE_P(Diffs, PrioMonotonicityTest,
                         ::testing::Values(1, 2, 3));

TEST(CoreSmt, MonotoneAcrossDiffs)
{
    CoreParams params;
    auto p = test::nops();
    auto s = test::nops();
    double prev = 0.0;
    for (int diff = -3; diff <= 3; ++diff) {
        int pp = diff >= 0 ? 4 + diff : 4;
        int ps = diff >= 0 ? 4 : 4 - diff;
        double ipc = pairIpc(params, p, s, pp, ps, 20000);
        EXPECT_GE(ipc, prev * 0.98)
            << "IPC not monotone at diff " << diff;
        prev = ipc;
    }
}

TEST(CoreSmt, StrictSlotsWasteForfeitedCycles)
{
    CoreParams params;
    auto p = test::nops();
    auto s = test::dramChase(); // mostly stalled
    double strict = pairIpc(params, p, s, 4, 4, 20000);

    CoreParams wc = params;
    wc.workConservingSlots = true;
    double conserving = pairIpc(wc, p, s, 4, 4, 20000);
    // Work conservation hands the memory thread's dead slots to the
    // nop thread: a large speedup (this is the ablation that shows the
    // real POWER5 behaviour is *strict*).
    EXPECT_GT(conserving, 1.2 * strict);
}

TEST(CoreSmt, MemoryBoundThreadInsensitiveToLowPriority)
{
    CoreParams params;
    auto mem = test::dramChase();
    auto cpu = test::serialChain();
    double base = pairIpc(params, mem, cpu, 4, 4, 100000);
    double starved = pairIpc(params, mem, cpu, 2, 6, 100000);
    // Paper Fig. 3(f): < 2.5x degradation with a non-memory sibling.
    EXPECT_GT(starved, base / 2.5);
}

TEST(CoreSmt, CpuBoundThreadCollapsesAtLowPriority)
{
    CoreParams params;
    auto cpu = test::nops();
    auto mem = test::dramChase();
    double base = pairIpc(params, cpu, mem, 4, 4, 50000);
    double starved = pairIpc(params, cpu, mem, 1, 6, 200000);
    // Paper Sec. 5.2: order-of-magnitude slowdowns at deep negative
    // priorities for decode-bound threads.
    EXPECT_GT(base / starved, 10.0);
}

TEST(CoreSmt, BalancerBoundsGctHogging)
{
    CoreParams params;
    auto cpu = test::serialChain();
    auto mem = test::dramChase();

    SmtCore core(params);
    test::withCheckers(core);
    core.attachThread(0, &cpu);
    core.attachThread(1, &mem);
    core.run(50000);
    const double with_balancer = core.ipcOf(0);
    // The balancer actively throttles the memory thread...
    EXPECT_GT(core.balancer().gctBlocksOf(1) +
                  core.balancer().tlbBlocksOf(1) +
                  core.balancer().lmqBlocksOf(1),
              0u);
    // ...and its cap holds: the hog never exceeds its GCT threshold by
    // more than one group.
    EXPECT_LE(core.gct().occupancyOf(1),
              static_cast<int>(core.balancer().gctThresholdFor(
                                   1, &core.arbiter().allocator()) *
                               core.gct().capacity()) +
                  1);

    CoreParams off = params;
    off.balancer.enabled = false;
    const double without = pairIpc(off, cpu, mem, 4, 4, 50000);
    // Balancing never hurts the victim thread.
    EXPECT_GE(with_balancer, without * 0.95);
}

TEST(CoreSmt, SingleThreadModeViaPriority7)
{
    CoreParams params;
    SmtCore core(params);
    test::withCheckers(core);
    auto p = test::nops();
    auto s = test::nops();
    core.attachThread(0, &p);
    core.attachThread(1, &s);
    core.setPriorityPair(7, 4);
    core.run(2000);
    EXPECT_GT(core.ipcOf(0), 4.0);
    EXPECT_EQ(core.committedOf(1), 0u);
}

TEST(CoreSmt, ShutOffThreadStopsCommitting)
{
    CoreParams params;
    SmtCore core(params);
    test::withCheckers(core);
    auto p = test::nops();
    auto s = test::nops();
    core.attachThread(0, &p);
    core.attachThread(1, &s);
    core.run(500);
    core.setPriorityPair(4, 0);
    const std::uint64_t frozen = core.committedOf(1);
    core.run(500);
    // In-flight instructions may drain, but no new decode happens.
    EXPECT_LE(core.committedOf(1) - frozen, 110u);
    EXPECT_GT(core.ipcOf(0), 2.0);
}

TEST(CoreSmt, TotalIpcSumsThreads)
{
    CoreParams params;
    SmtCore core(params);
    test::withCheckers(core);
    auto p = test::nops();
    auto s = test::nops();
    core.attachThread(0, &p);
    core.attachThread(1, &s);
    core.run(1000);
    EXPECT_DOUBLE_EQ(core.totalIpc(), core.ipcOf(0) + core.ipcOf(1));
}

TEST(CoreSmt, SmtBeatsStThroughputForMixedPair)
{
    CoreParams params;
    // A chain-bound thread leaves units idle that a second thread can
    // use: total SMT throughput must exceed the ST throughput of
    // either thread alone.
    auto p = test::serialChain();
    auto s = test::serialChain();
    SmtCore smt(params);
    test::withCheckers(smt);
    smt.attachThread(0, &p);
    smt.attachThread(1, &s);
    smt.run(5000);
    SmtCore st(params);
    test::withCheckers(st);
    auto solo = test::serialChain();
    st.attachThread(0, &solo);
    st.run(5000);
    EXPECT_GT(smt.totalIpc(), 1.5 * st.ipcOf(0));
}

TEST(Chip, TwoCoresShareTheBackside)
{
    CoreParams params;
    Chip chip(params);
    auto p0 = test::dramChase(10000);
    auto p1 = test::dramChase(10000);
    chip.core(0).attachThread(0, &p0);
    chip.core(1).attachThread(0, &p1);
    chip.run(30000);
    // Both cores made progress and the shared L2 saw traffic from both.
    EXPECT_GT(chip.core(0).committedOf(0), 0u);
    EXPECT_GT(chip.core(1).committedOf(0), 0u);
    EXPECT_GT(chip.backside().l2().misses(), 0u);
}

TEST(Chip, CoreIndexChecked)
{
    CoreParams params;
    Chip chip(params);
    EXPECT_DEATH(chip.core(2), "out of range");
}

TEST(Chip, SeparateCoresDoNotShareL1)
{
    CoreParams params;
    Chip chip(params);
    auto p0 = test::dramChase(100);
    chip.core(0).attachThread(0, &p0);
    chip.run(5000);
    EXPECT_GT(chip.core(0).hierarchy().l1d().insertions(), 0u);
    EXPECT_EQ(chip.core(1).hierarchy().l1d().insertions(), 0u);
}

// --- per-group unfinished counts (commit readiness) -------------------
//
// The armed GctChecker recounts every group's unfinished instructions
// from the window each cycle, so these runs fail on the first drift.

TEST(CoreSmt, UnfinishedCountsSurviveBranchSquashes)
{
    const SyntheticProgram prog = makeUbench(UbenchId::BrMiss);
    CoreParams params;
    SmtCore core(params);
    test::withCheckers(core);
    core.attachThread(0, &prog, 4);
    core.attachThread(1, &prog, 4);
    core.run(20000);
    EXPECT_GT(core.stats().value("thread0.mispredicts"), 100.0);
    EXPECT_GT(core.stats().value("thread0.squashed"), 0.0);
}

/** The balancer in Flush mode on a pair that keeps it flushing. */
CoreParams
flushingParams()
{
    CoreParams params;
    params.lmqEntries = 3;
    params.balancer.lmqThreshold = 2;
    params.balancer.action = BalanceAction::Flush;
    return params;
}

TEST(CoreSmt, UnfinishedCountsSurviveBalancerFlushesAndRestore)
{
    const SyntheticProgram p = makeUbench(UbenchId::LdintMem);
    const SyntheticProgram s = makeUbench(UbenchId::LdintL2);
    SmtCore core(flushingParams());
    test::withCheckers(core);
    core.attachThread(0, &p, 5);
    core.attachThread(1, &s, 3);
    core.run(200000);
    EXPECT_GT(core.stats().value("thread1.flushedInstrs"), 0.0);

    // Restore mid-run: the counts are rebuilt from the window, not
    // read from the image, and the restored core runs on identically.
    CkptWriter w;
    core.saveState(w);
    SmtCore twin(flushingParams());
    test::withCheckers(twin);
    twin.attachThread(0, &p, 5);
    twin.attachThread(1, &s, 3);
    CkptReader r(w.data());
    twin.restoreState(r);
    r.expectEnd();
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto &a = core.gct().groupsOf(t);
        const auto &b = twin.gct().groupsOf(t);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].unfinished, b[i].unfinished);
    }
    core.run(50000);
    twin.run(50000);
    for (const std::string &name : core.stats().names())
        EXPECT_EQ(core.stats().value(name), twin.stats().value(name))
            << name;
}

/**
 * Decode flushes each thread just before classifying it, so a flush of
 * thread 1 frees GCT groups only after thread 0's admission check: in
 * the cycle of the flush, thread 0 is charged a GCT stall although the
 * GCT the flush leaves would admit it. Classifying after every flush
 * would charge no such cycle.
 */
TEST(CoreSmt, ThreadOnesFlushFollowsThreadZerosGctAdmission)
{
    CoreParams params;
    params.balancer.action = BalanceAction::Flush;
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt, 0.25);
    SmtCore core(params);
    test::withCheckers(core);
    core.attachThread(0, &prog, 4);
    core.attachThread(1, &prog, 3);
    int admissible_after_flush = 0;
    for (int c = 0; c < 2000; ++c) {
        const double flushed = core.stats().value("thread1.flushedInstrs");
        const double gct_stalls = core.stats().value("thread0.stallGct");
        core.tick();
        if (core.stats().value("thread1.flushedInstrs") == flushed ||
            core.stats().value("thread0.stallGct") == gct_stalls)
            continue;
        // Thread 1 was blocked and thread 0 stalled, so nothing
        // decoded: the GCT is as thread 1's flush left it.
        const Gct &gct = core.gct();
        const int needed = gct.occupancyOf(0) > gct.occupancyOf(1) ? 2 : 1;
        if (gct.capacity() - gct.occupancy() >= needed)
            ++admissible_after_flush;
    }
    EXPECT_GT(admissible_after_flush, 0);
}

TEST(CoreSmt, ReattachNeverHonoursAStaleCompletion)
{
    // Detaching drops the window but not the completions and ready
    // entries already queued for it, and the next program restarts at
    // seq 0 in the same window slots. Only the epoch detach() bumps
    // keeps those handles from finishing the new program's instructions
    // early (FlowChecker's finished-before-complete invariant). The
    // alloc engine detaches and re-attaches like this at quantum
    // boundaries.
    const SyntheticProgram p = makeUbench(UbenchId::LdintMem);
    const SyntheticProgram s = makeUbench(UbenchId::CpuInt);
    CoreParams params;
    SmtCore core(params);
    test::withCheckers(core);
    core.attachThread(1, &s, 4);
    for (int round = 0; round < 20; ++round) {
        core.attachThread(0, &p, 4);
        core.run(512);
        EXPECT_FALSE(core.thread(0).window.empty());
        core.detachThread(0);
    }
    EXPECT_EQ(core.checks().failureCount(), 0u);
}

} // namespace
} // namespace p5
