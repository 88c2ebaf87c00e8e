/**
 * @file
 * Tests for the FAME methodology runner.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "fame/fame.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

FameParams
quickFame(std::uint64_t reps = 5)
{
    FameParams p;
    p.minRepetitions = reps;
    p.warmupRepetitions = 1;
    p.maiv = 0.05;
    p.warmupTolerance = 0.25;
    p.maxCycles = 50'000'000;
    return p;
}

TEST(Fame, SingleThreadRun)
{
    auto prog = test::serialChain(50);
    CoreParams cp;
    FameResult r = runFame(cp, &prog, nullptr, 4, 0, quickFame());
    EXPECT_TRUE(r.converged);
    EXPECT_FALSE(r.hitCycleLimit);
    ASSERT_TRUE(r.thread[0].present);
    EXPECT_FALSE(r.thread[1].present);
    EXPECT_GE(r.thread[0].executions, 5u);
    EXPECT_NEAR(r.thread[0].avgIpc(), 1.0, 0.15);
}

TEST(Fame, BothThreadsReachMinimumRepetitions)
{
    auto fast = test::nops(20);
    auto slow = test::serialChain(50);
    CoreParams cp;
    FameResult r = runFame(cp, &fast, &slow, 4, 4, quickFame(10));
    EXPECT_GE(r.thread[0].executions, 10u);
    EXPECT_GE(r.thread[1].executions, 10u);
    // The faster benchmark re-executes more often (paper Fig. 1).
    EXPECT_GT(r.thread[0].executions, r.thread[1].executions);
}

TEST(Fame, AccountingUsesCompleteRepetitionsOnly)
{
    auto prog = test::serialChain(50); // 400 instrs/execution
    CoreParams cp;
    FameResult r = runFame(cp, &prog, nullptr, 4, 0, quickFame());
    const auto &m = r.thread[0];
    EXPECT_EQ(m.accountedInstrs,
              m.executions * prog.instrsPerExecution());
    // Average execution time * executions == accounted cycles.
    EXPECT_NEAR(m.avgExecTime() * static_cast<double>(m.executions),
                static_cast<double>(m.accountedCycles), 1.0);
}

TEST(Fame, TotalIpcSumsPresentThreads)
{
    auto a = test::nops(20);
    auto b = test::nops(20);
    CoreParams cp;
    FameResult r = runFame(cp, &a, &b, 4, 4, quickFame());
    EXPECT_NEAR(r.totalIpc(),
                r.thread[0].avgIpc() + r.thread[1].avgIpc(), 1e-9);
}

TEST(Fame, CycleGuardTrips)
{
    auto prog = test::dramChase(5000); // very long executions
    CoreParams cp;
    FameParams fp = quickFame(50);
    fp.maxCycles = 20000;
    LogLevel old = setLogLevel(LogLevel::Silent);
    FameResult r = runFame(cp, &prog, nullptr, 4, 0, fp);
    setLogLevel(old);
    EXPECT_TRUE(r.hitCycleLimit);
    EXPECT_FALSE(r.converged);
}

TEST(Fame, WarmupExcludesColdCaches)
{
    // A benchmark whose first pass is all DRAM misses but is
    // L1-resident afterwards: the measured IPC must reflect the warm
    // behaviour, not the cold pass.
    ProgramBuilder b("warmable");
    int pat = b.memPattern(0, 128, 8 * 1024);
    b.beginPhase(64);
    b.load(11, pat, 11);
    b.intAlu(0, 11);
    b.nop();
    auto prog = b.build();

    CoreParams cp;
    FameResult r = runFame(cp, &prog, nullptr, 4, 0, quickFame());
    // Warm: self-chained L1 hits at 2 cycles per 3 instructions.
    EXPECT_GT(r.thread[0].avgIpc(), 1.0);
}

TEST(Fame, PriorityPairPlumbing)
{
    auto a = test::nops(20);
    auto b = test::nops(20);
    CoreParams cp;
    FameResult hi = runFame(cp, &a, &b, 6, 2, quickFame());
    EXPECT_GT(hi.thread[0].avgIpc(), 3.0 * hi.thread[1].avgIpc());
}

TEST(FameDeath, NoThreadsIsFatal)
{
    CoreParams cp;
    SmtCore core(cp);
    FameRunner runner(quickFame());
    EXPECT_FATAL(runner.run(core), "no attached threads");
}

TEST(FameDeath, BadParamsAreFatal)
{
    FameParams p;
    p.minRepetitions = 0;
    EXPECT_FATAL({ FameRunner r(p); }, "at least one repetition");
    FameParams q;
    q.maiv = 0.0;
    EXPECT_FATAL({ FameRunner r(q); }, "MAIV");
}

TEST(Fame, DeterministicResults)
{
    auto prog = test::randomBranches(100);
    CoreParams cp;
    FameResult a = runFame(cp, &prog, nullptr, 4, 0, quickFame());
    FameResult b = runFame(cp, &prog, nullptr, 4, 0, quickFame());
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.thread[0].executions, b.thread[0].executions);
}

} // namespace
} // namespace p5
