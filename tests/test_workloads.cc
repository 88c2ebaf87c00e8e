/**
 * @file
 * Tests for the case-study workloads: SPEC proxies and the FFT/LU
 * pipeline.
 */

#include <gtest/gtest.h>

#include "core/smt_core.hh"
#include "fame/fame.hh"
#include "test_helpers.hh"
#include "workloads/pipeline_app.hh"
#include "workloads/spec_proxy.hh"

namespace p5 {
namespace {

TEST(SpecProxy, AllBuildAndRoundTrip)
{
    for (int i = 0; i < num_spec_proxies; ++i) {
        auto id = static_cast<SpecProxyId>(i);
        SyntheticProgram p = makeSpecProxy(id);
        EXPECT_GT(p.instrsPerExecution(), 0u);
        EXPECT_EQ(specProxyFromName(specProxyName(id)), id);
    }
}

TEST(SpecProxyDeath, UnknownNameIsFatal)
{
    EXPECT_FATAL(specProxyFromName("gcc"), "unknown SPEC proxy");
}

double
stIpc(SpecProxyId id, Cycle cycles)
{
    // FAME handles the warm-up (the L2 "rings" need a couple hundred
    // iterations before they reach their steady service level).
    (void)cycles;
    SyntheticProgram prog = makeSpecProxy(id);
    CoreParams params;
    FameParams fame;
    fame.minRepetitions = 5;
    fame.warmupRepetitions = 2;
    fame.maiv = 0.03;
    fame.warmupTolerance = 0.2;
    FameResult r = runFame(params, &prog, nullptr, 4, 0, fame);
    return r.thread[0].avgIpc();
}

TEST(SpecProxy, BoundClassesAreRight)
{
    // h264ref and applu are the high-IPC members of their pairs; mcf
    // and equake are the memory-bound low-IPC ones (paper Sec. 5.3.1).
    double h264 = stIpc(SpecProxyId::H264ref, 200000);
    double mcf = stIpc(SpecProxyId::Mcf, 200000);
    double applu = stIpc(SpecProxyId::Applu, 200000);
    double equake = stIpc(SpecProxyId::Equake, 200000);
    EXPECT_GT(h264, 2.5 * mcf);
    EXPECT_GT(applu, 2.0 * equake);
    EXPECT_GT(mcf, 0.03);
    EXPECT_LT(mcf, 0.4);
    EXPECT_GT(equake, 0.03);
    EXPECT_LT(equake, 0.4);
}

TEST(SpecProxy, PrioritizingH264refRaisesTotalIpc)
{
    // The heart of the paper's first case study.
    SyntheticProgram h = makeSpecProxy(SpecProxyId::H264ref);
    SyntheticProgram m = makeSpecProxy(SpecProxyId::Mcf);
    CoreParams params;

    SmtCore base(params);
    base.attachThread(0, &h);
    base.attachThread(1, &m);
    base.run(400000);

    SmtCore boosted(params);
    boosted.attachThread(0, &h, 6);
    boosted.attachThread(1, &m, 2);
    boosted.run(400000);

    EXPECT_GT(boosted.totalIpc(), 1.1 * base.totalIpc());
    EXPECT_GT(boosted.ipcOf(0), base.ipcOf(0));
    EXPECT_LT(boosted.ipcOf(1), base.ipcOf(1));
}

TEST(PipelineStages, SizesReflectTheImbalance)
{
    SyntheticProgram fft = makeFftStage();
    SyntheticProgram lu = makeLuStage();
    // FFT is the long stage (paper: 1.86 s vs 0.26 s).
    EXPECT_GT(fft.instrsPerExecution(), 3 * lu.instrsPerExecution());
}

TEST(Pipeline, SingleThreadIsSumOfStages)
{
    PipelineParams pp;
    pp.iterations = 3;
    pp.scale = 0.25;
    PipelineApp app(pp);
    CoreParams params;
    PipelineResult st = app.runSingleThread(params);
    EXPECT_FALSE(st.hitCycleLimit);
    EXPECT_NEAR(st.iterationCycles, st.fftCycles + st.luCycles, 1.0);
    EXPECT_GT(st.fftCycles, st.luCycles);
}

TEST(Pipeline, SmtBeatsSingleThread)
{
    // Paper Table 4: overlapping FFT and LU beats running them
    // back-to-back.
    PipelineParams pp;
    pp.iterations = 3;
    pp.scale = 0.25;
    PipelineApp app(pp);
    CoreParams params;
    PipelineResult st = app.runSingleThread(params);
    PipelineResult smt = app.runSmt(params);
    EXPECT_FALSE(smt.hitCycleLimit);
    EXPECT_LT(smt.iterationCycles, st.iterationCycles);
}

TEST(Pipeline, OverPrioritizationInvertsTheImbalance)
{
    // Paper Table 4 row (6,3): too much FFT priority makes LU the
    // bottleneck.
    CoreParams params;
    PipelineParams balanced;
    balanced.iterations = 3;
    balanced.scale = 0.25;
    PipelineResult base = PipelineApp(balanced).runSmt(params);

    PipelineParams extreme = balanced;
    extreme.prioFft = 6;
    extreme.prioLu = 3;
    PipelineResult inverted = PipelineApp(extreme).runSmt(params);

    EXPECT_GT(inverted.luCycles, 2.0 * base.luCycles);
    EXPECT_GT(inverted.iterationCycles, 0.95 * base.iterationCycles);
}

TEST(Pipeline, ModeratePriorityHelpsOrIsNeutral)
{
    CoreParams params;
    PipelineParams base;
    base.iterations = 3;
    base.scale = 0.25;
    PipelineResult b = PipelineApp(base).runSmt(params);

    PipelineParams plus = base;
    plus.prioFft = 5;
    PipelineResult p = PipelineApp(plus).runSmt(params);
    EXPECT_LT(p.iterationCycles, 1.1 * b.iterationCycles);
}

TEST(PipelineDeath, BadParamsAreFatal)
{
    PipelineParams pp;
    pp.iterations = 0;
    EXPECT_FATAL({ PipelineApp app(pp); }, "at least one");
    PipelineParams pq;
    pq.prioFft = 9;
    EXPECT_FATAL({ PipelineApp app(pq); }, "invalid priorities");
}

} // namespace
} // namespace p5
