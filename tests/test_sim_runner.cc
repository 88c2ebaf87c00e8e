/**
 * @file
 * Tests for the job-based execution engine: SimJob keys and seeds, the
 * keyed result cache (including the shared (4,4) baseline dedup the
 * engine exists for), and bit-identical results across worker counts.
 */

#include <gtest/gtest.h>

#include "exp/experiments.hh"
#include "fame/sim_runner.hh"

namespace p5 {
namespace {

FameParams
fastFame()
{
    FameParams fame;
    fame.minRepetitions = 3;
    fame.warmupRepetitions = 1;
    fame.maiv = 0.05;
    fame.warmupTolerance = 0.25;
    return fame;
}

SimJob
fastPair(UbenchId p, UbenchId s, int prio_p, int prio_s)
{
    return SimJob::famePair(ProgramSpec::ubench(p, 0.5),
                            ProgramSpec::ubench(s, 0.5), prio_p, prio_s,
                            CoreParams{}, fastFame());
}

void
expectIdentical(const FameResult &a, const FameResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.hitCycleLimit, b.hitCycleLimit);
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(num_hw_threads); ++t) {
        SCOPED_TRACE(t);
        EXPECT_EQ(a.thread[t].present, b.thread[t].present);
        EXPECT_EQ(a.thread[t].executions, b.thread[t].executions);
        EXPECT_EQ(a.thread[t].accountedCycles,
                  b.thread[t].accountedCycles);
        EXPECT_EQ(a.thread[t].accountedInstrs,
                  b.thread[t].accountedInstrs);
    }
}

TEST(SimJob, KeyIsStableAndDiscriminating)
{
    SimJob a = fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 6, 2);
    SimJob b = fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 6, 2);
    EXPECT_EQ(a.key(), b.key());

    // Every configuration knob must show up in the key.
    SimJob prio = fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 6, 3);
    EXPECT_NE(a.key(), prio.key());

    SimJob swapped = fastPair(UbenchId::LdintMem, UbenchId::CpuInt, 6, 2);
    EXPECT_NE(a.key(), swapped.key());

    SimJob scaled = a;
    scaled.primary.scale = 0.75;
    EXPECT_NE(a.key(), scaled.key());

    SimJob fame = a;
    fame.fame.minRepetitions = 4;
    EXPECT_NE(a.key(), fame.key());

    SimJob core = a;
    core.core.lmqEntries = 4;
    EXPECT_NE(a.key(), core.key());

    SimJob st = SimJob::fameSingle(ProgramSpec::ubench(UbenchId::CpuInt,
                                                       0.5),
                                   CoreParams{}, fastFame());
    EXPECT_NE(a.key(), st.key());
}

TEST(SimJob, RngSeedIsAPureFunctionOfTheKey)
{
    SimJob a = fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 6, 2);
    SimJob b = fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 6, 2);
    EXPECT_EQ(a.rngSeed(), b.rngSeed());

    SimJob c = fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 6, 1);
    EXPECT_NE(a.rngSeed(), c.rngSeed());
}

TEST(SimJob, PipelineJobKindsHaveDistinctKeys)
{
    PipelineParams pp;
    pp.scale = 0.25;
    SimJob st = SimJob::pipelineSingleThread(pp, CoreParams{});
    SimJob smt = SimJob::pipelineSmt(pp, CoreParams{});
    EXPECT_NE(st.key(), smt.key());
}

std::vector<const SimJob *>
pointersTo(const std::vector<SimJob> &batch)
{
    std::vector<const SimJob *> out;
    for (const SimJob &job : batch)
        out.push_back(&job);
    return out;
}

/**
 * A mixed batch: two-thread FAME jobs at differences 0, 5, 2, 5 and
 * -3, a single-thread job at priority 6 (no partner, so no slot
 * sharing) and a pipeline job.
 */
std::vector<SimJob>
mixedCostBatch()
{
    PipelineParams pp;
    pp.scale = 0.25;
    return {fastPair(UbenchId::CpuInt, UbenchId::CpuInt, 4, 4),
            fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 6, 1),
            fastPair(UbenchId::CpuInt, UbenchId::CpuInt, 6, 4),
            fastPair(UbenchId::LdintMem, UbenchId::CpuInt, 1, 6),
            fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 3, 6),
            SimJob::fameSingle(ProgramSpec::ubench(UbenchId::CpuInt, 0.5),
                               CoreParams{}, fastFame(), 6),
            SimJob::pipelineSmt(pp, CoreParams{})};
}

TEST(SimRunner, ExpectedCostIsThePairsPriorityDifference)
{
    const std::vector<SimJob> batch = mixedCostBatch();
    const int expected[] = {0, 5, 2, 5, 3, 0, 0};
    for (std::size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(SimRunner::expectedCost(batch[i]), expected[i]);
    }
}

TEST(SimRunner, PoolDispatchStartsTheLargestDifferenceFirst)
{
    // Larger |dP| first; equal costs (the two 5s, then the three 0s)
    // keep submission order.
    const std::vector<SimJob> batch = mixedCostBatch();
    SimRunner runner(4);
    EXPECT_EQ(runner.dispatchOrder(pointersTo(batch)),
              (std::vector<std::size_t>{1, 3, 4, 2, 0, 5, 6}));
}

TEST(SimRunner, SerialDispatchKeepsSubmissionOrder)
{
    const std::vector<SimJob> batch = mixedCostBatch();
    SimRunner runner(1);
    EXPECT_EQ(runner.dispatchOrder(pointersTo(batch)),
              (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(SimRunner, CacheCoalescesDuplicatesWithinABatch)
{
    ResultCache cache;
    SimRunner runner(2, &cache);

    SimJob job = fastPair(UbenchId::CpuInt, UbenchId::CpuInt, 5, 4);
    std::vector<SimJob> batch = {job, job, job};
    std::vector<SimResult> res = runner.run(batch);

    ASSERT_EQ(res.size(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.size(), 1u);
    expectIdentical(res[0].fame, res[1].fame);
    expectIdentical(res[0].fame, res[2].fame);
}

TEST(SimRunner, CacheHitsAcrossBatchesReturnTheSameResult)
{
    ResultCache cache;
    SimRunner runner(1, &cache);

    SimJob job = fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 4, 4);
    SimResult first = runner.runOne(job);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    SimResult again = runner.runOne(job);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    expectIdentical(first.fame, again.fame);
}

TEST(SimRunner, SharedBaselinesDeduplicateAcrossProducers)
{
    // Table 3's (4,4) matrix and Fig. 2's per-pair baselines are the
    // same simulations; through one cache they must run exactly once.
    ResultCache cache;
    ExpConfig cfg = ExpConfig::fast();
    cfg.cache = &cache;
    cfg.jobs = 2;

    (void)runTable3(cfg);
    EXPECT_EQ(cache.hits(), 0u);
    const std::uint64_t missesAfterTable3 = cache.misses();

    (void)runFig2(cfg);
    const std::size_t n = cfg.benchmarks.size();
    // Every (i, j) baseline of Fig. 2 was already simulated by Table 3.
    EXPECT_EQ(cache.hits(), n * n);
    // And the only new simulations are the five diffs per pair.
    EXPECT_EQ(cache.misses() - missesAfterTable3, n * n * 5);
}

TEST(SimRunner, ResultsAreIdenticalForAnyWorkerCount)
{
    // A Fig. 2 slice: cpu_int against two partners across diffs +1..+5,
    // once serially and once on eight workers, private caches so both
    // actually simulate. Results must match bit for bit.
    std::vector<SimJob> batch;
    for (UbenchId partner : {UbenchId::CpuInt, UbenchId::LdintMem})
        for (int d = 1; d <= 5; ++d) {
            auto [pp, ps] = prioPairForDiff(d);
            batch.push_back(
                fastPair(UbenchId::CpuInt, partner, pp, ps));
        }

    ResultCache cacheSerial, cacheParallel;
    SimRunner serial(1, &cacheSerial);
    SimRunner parallel(8, &cacheParallel);

    std::vector<SimResult> a = serial.run(batch);
    std::vector<SimResult> b = parallel.run(batch);

    ASSERT_EQ(a.size(), batch.size());
    ASSERT_EQ(b.size(), batch.size());
    EXPECT_EQ(cacheParallel.misses(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE(i);
        expectIdentical(a[i].fame, b[i].fame);
        EXPECT_EQ(a[i].rngSeed, b[i].rngSeed);
    }
}

TEST(SimRunner, ExpConfigProducersMatchAcrossWorkerCounts)
{
    // Full producer path: runFig2 with jobs=1 and jobs=4 must assemble
    // identical curves (fresh caches force re-simulation).
    ResultCache c1, c4;
    ExpConfig serialCfg = ExpConfig::fast();
    serialCfg.jobs = 1;
    serialCfg.cache = &c1;
    ExpConfig parallelCfg = ExpConfig::fast();
    parallelCfg.jobs = 4;
    parallelCfg.cache = &c4;

    PrioCurveData a = runFig2(serialCfg);
    PrioCurveData b = runFig2(parallelCfg);

    ASSERT_EQ(a.rel.size(), b.rel.size());
    for (std::size_t i = 0; i < a.rel.size(); ++i)
        for (std::size_t j = 0; j < a.rel[i].size(); ++j)
            for (std::size_t d = 0; d < a.rel[i][j].size(); ++d)
                EXPECT_EQ(a.rel[i][j][d], b.rel[i][j][d])
                    << i << "," << j << "," << d;
}

} // namespace
} // namespace p5
