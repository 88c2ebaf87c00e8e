/**
 * @file
 * Tests for the experiment harness and renderers (fast configurations).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "ckpt/ckpt_manager.hh"
#include "exp/experiments.hh"
#include "exp/report.hh"
#include "fame/sim_runner.hh"

namespace p5 {
namespace {

TEST(Experiments, PrioPairMapping)
{
    EXPECT_EQ(prioPairForDiff(0), (std::pair{4, 4}));
    EXPECT_EQ(prioPairForDiff(1), (std::pair{5, 4}));
    EXPECT_EQ(prioPairForDiff(2), (std::pair{6, 4}));
    EXPECT_EQ(prioPairForDiff(3), (std::pair{6, 3}));
    EXPECT_EQ(prioPairForDiff(4), (std::pair{6, 2}));
    EXPECT_EQ(prioPairForDiff(5), (std::pair{6, 1}));
    EXPECT_EQ(prioPairForDiff(-2), (std::pair{4, 6}));
    EXPECT_EQ(prioPairForDiff(-5), (std::pair{1, 6}));
}

TEST(Experiments, PrioPairsStayInSupervisorRange)
{
    for (int d = -5; d <= 5; ++d) {
        auto [p, s] = prioPairForDiff(d);
        EXPECT_GE(p, 1);
        EXPECT_LE(p, 6);
        EXPECT_GE(s, 1);
        EXPECT_LE(s, 6);
        EXPECT_EQ(p - s, d);
    }
}

TEST(Experiments, FastConfigIsSmall)
{
    ExpConfig fast = ExpConfig::fast();
    EXPECT_LT(fast.fame.minRepetitions, 10u);
    EXPECT_EQ(fast.benchmarks.size(), 2u);
}

TEST(Experiments, Table3FastRun)
{
    ExpConfig cfg = ExpConfig::fast();
    Table3Data d = runTable3(cfg);
    ASSERT_EQ(d.benchmarks.size(), 2u);
    ASSERT_EQ(d.stIpc.size(), 2u);
    // cpu_int ST IPC well above ldint_mem's.
    EXPECT_GT(d.stIpc[0], 5.0 * d.stIpc[1]);
    // Co-running never raises a benchmark above its ST IPC.
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_LE(d.pt[i][j], d.stIpc[i] * 1.1);
            EXPECT_GE(d.tt[i][j], d.pt[i][j]);
        }

    Table t = renderTable3(d);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Experiments, Fig2FastShapes)
{
    ExpConfig cfg = ExpConfig::fast();
    PrioCurveData d = runFig2(cfg);
    ASSERT_EQ(d.diffs.size(), 5u);
    // cpu_int (index 0) vs cpu_int: positive priority must speed the
    // PThread up, monotonically-ish, by at least 1.3x at +4.
    EXPECT_GT(d.rel[0][0][3], 1.3);
    EXPECT_GE(d.rel[0][0][4], d.rel[0][0][0] * 0.9);
    // All factors >= ~1 (priority never hurts the prioritized thread).
    for (const auto &row : d.rel)
        for (const auto &series : row)
            for (double f : series)
                EXPECT_GT(f, 0.85);
}

TEST(Experiments, Fig3FastShapes)
{
    ExpConfig cfg = ExpConfig::fast();
    PrioCurveData d = runFig3(cfg);
    // cpu_int degraded heavily at -4/-5 against either sibling.
    EXPECT_LT(d.rel[0][0][4], 0.2);
    EXPECT_LT(d.rel[0][1][4], 0.2);
    // ldint_mem (index 1) stays within a small factor against cpu_int
    // (paper Fig 3(f): < 2.5x; we allow ~3.5x at fast-config scale).
    EXPECT_GT(d.rel[1][0][4], 0.28);
    // ...and is hit far harder by another ldint_mem.
    EXPECT_LT(d.rel[1][1][4], 0.5 * d.rel[1][0][4]);
}

TEST(Experiments, Fig4FastShapes)
{
    ExpConfig cfg = ExpConfig::fast();
    ThroughputData d = runFig4(cfg);
    ASSERT_EQ(d.diffs.size(), 9u);
    // Diff 0 is the baseline by construction.
    EXPECT_DOUBLE_EQ(d.ratio[0][0][4], 1.0);
    // Prioritizing cpu_int over ldint_mem raises total IPC; the
    // reverse lowers it (paper Sec. 5.3).
    EXPECT_GE(d.ratio[0][1][8], 0.95);
    EXPECT_LT(d.ratio[0][1][0], 0.75);
    Table t = renderFig4(d)[0];
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Experiments, Table4FastRun)
{
    ExpConfig cfg = ExpConfig::fast();
    cfg.ubenchScale = 0.25;
    Table4Data d = runTable4(cfg);
    ASSERT_EQ(d.rows.size(), 5u);
    EXPECT_TRUE(d.rows[0].singleThread);
    // SMT (4,4) beats single-thread mode.
    EXPECT_LT(d.rows[1].iterationCycles, d.rows[0].iterationCycles);
    // (6,3) degrades the LU stage heavily.
    EXPECT_GT(d.rows[4].luCycles, 2.0 * d.rows[1].luCycles);
    Table t = renderTable4(d);
    EXPECT_EQ(t.numRows(), 5u);
}

TEST(Experiments, Fig5FastRun)
{
    ExpConfig cfg = ExpConfig::fast();
    CaseStudyData d =
        runFig5(SpecProxyId::H264ref, SpecProxyId::Mcf, cfg);
    ASSERT_EQ(d.diffs.size(), 6u);
    // Prioritizing the high-IPC thread raises its IPC and lowers the
    // partner's.
    EXPECT_GT(d.ipcPrimary[2], d.ipcPrimary[0]);
    EXPECT_LT(d.ipcSecondary[5], d.ipcSecondary[0]);
    // Total IPC peaks above the baseline somewhere (paper Fig. 5(a)).
    double best = 0.0;
    for (double t : d.ipcTotal)
        best = std::max(best, t);
    EXPECT_GT(best, 1.05 * d.ipcTotal[0]);
    Table t = renderFig5(d);
    EXPECT_EQ(t.numRows(), 6u);
}

TEST(Experiments, Fig5BatchEqualsSinglePairCalls)
{
    // Both pairs as one parallel batch (checkpointed) against one call
    // per pair, serial and cold; private caches force both to simulate.
    ResultCache batch_cache, pair_cache;
    CkptManager ckpts;
    ExpConfig batched = ExpConfig::fast();
    batched.jobs = 4;
    batched.cache = &batch_cache;
    batched.checkpoints = &ckpts;
    ExpConfig single = ExpConfig::fast();
    single.jobs = 1;
    single.cache = &pair_cache;

    const std::vector<CaseStudyData> both =
        runFig5({{SpecProxyId::H264ref, SpecProxyId::Mcf},
                 {SpecProxyId::Applu, SpecProxyId::Equake}},
                batched);
    const CaseStudyData a =
        runFig5(SpecProxyId::H264ref, SpecProxyId::Mcf, single);
    const CaseStudyData b =
        runFig5(SpecProxyId::Applu, SpecProxyId::Equake, single);

    ASSERT_EQ(both.size(), 2u);
    for (const auto &[got, want] :
         {std::pair{&both[0], &a}, std::pair{&both[1], &b}}) {
        EXPECT_EQ(got->primary, want->primary);
        EXPECT_EQ(got->secondary, want->secondary);
        EXPECT_EQ(got->diffs, want->diffs);
        EXPECT_EQ(got->ipcPrimary, want->ipcPrimary);
        EXPECT_EQ(got->ipcSecondary, want->ipcSecondary);
        EXPECT_EQ(got->ipcTotal, want->ipcTotal);
    }

    // One warm-up per pair-mix; the other five diffs of each fork it.
    EXPECT_EQ(ckpts.warms(), 2u);
    EXPECT_EQ(ckpts.memForks(), 10u);
    EXPECT_EQ(ckpts.storeForks(), 0u);
}

TEST(Experiments, RenderTable1MatchesPaper)
{
    Table t = renderTable1();
    EXPECT_EQ(t.numRows(), 8u);
    EXPECT_EQ(t.row(1)[3], "or 31,31,31");
    EXPECT_EQ(t.row(0)[2], "Hypervisor");
    EXPECT_EQ(t.row(4)[1], "Medium");
}

TEST(Experiments, RenderTable2ListsAllBenchmarks)
{
    Table t = renderTable2();
    EXPECT_EQ(t.numRows(), 15u);
}

TEST(Experiments, RenderersProduceOutput)
{
    ExpConfig cfg = ExpConfig::fast();
    PrioCurveData d = runFig2(cfg);
    auto tables = renderPrioCurves(d, "Figure 2");
    ASSERT_EQ(tables.size(), 2u);
    std::ostringstream os;
    tables[0].printAscii(os);
    EXPECT_NE(os.str().find("cpu_int"), std::string::npos);
}

} // namespace
} // namespace p5
