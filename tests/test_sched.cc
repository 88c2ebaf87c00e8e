/**
 * @file
 * Scheduler-layer tests: Workload construction, Assignment packing,
 * the Allocator contract (exact placement, determinism) for all three
 * policies, the symbiosis predictor's pairing preferences, AllocEngine
 * equivalence with a directly-driven chip under the pinned policy,
 * round-robin fairness when threads outnumber hardware contexts, the
 * QuantumMonitor's StatGroup series, and the ChipConservation checker.
 */

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/chip_checker.hh"
#include "common/json.hh"
#include "core/chip.hh"
#include "sched/alloc_engine.hh"
#include "sched/allocator.hh"
#include "sched/monitor.hh"
#include "sched/sched_params.hh"
#include "sched/workload.hh"
#include "test_helpers.hh"
#include "ubench/ubench.hh"

namespace p5 {
namespace {

/** Runnable ids placed by @p a, sorted. */
std::vector<int>
placedIds(const Assignment &a)
{
    std::vector<int> ids;
    for (int c = 0; c < a.numCores; ++c)
        for (int h = 0; h < num_hw_threads; ++h) {
            const int tid = a.core(c)[static_cast<std::size_t>(h)];
            if (tid >= 0)
                ids.push_back(tid);
        }
    std::sort(ids.begin(), ids.end());
    return ids;
}

/** A history where every thread repeats one fixed sample. */
std::vector<ThreadHistory>
uniformHistory(const std::vector<ThreadSample> &per_thread, int quanta)
{
    std::vector<ThreadHistory> h(per_thread.size());
    for (std::size_t t = 0; t < per_thread.size(); ++t)
        for (int q = 0; q < quanta; ++q)
            h[t].push(per_thread[t], quanta);
    return h;
}

ThreadSample
sample(std::uint64_t committed, std::uint64_t l2_misses, double occ,
       Cycle cycles = 20000)
{
    ThreadSample s;
    s.committed = committed;
    s.l2Misses = l2_misses;
    s.gctOccupancy = occ;
    s.cycles = cycles;
    return s;
}

// --- Workload ----------------------------------------------------------

TEST(Workload, FromMixBuildsThreadsInOrder)
{
    const Workload w =
        Workload::fromMix("cpu_int,ldint_mem,cpu_fp,ldint_l2");
    EXPECT_EQ(w.size(), 4);
    EXPECT_EQ(w.describe(), "cpu_int+ldint_mem+cpu_fp+ldint_l2");
    for (int i = 0; i < w.size(); ++i) {
        EXPECT_EQ(w.thread(i).id, i);
        EXPECT_EQ(w.thread(i).priority, default_priority);
    }
}

TEST(Workload, UnknownMixNameIsFatal)
{
    EXPECT_FATAL(Workload::fromMix("cpu_int,bogus_bench"), "bogus_bench");
    EXPECT_FATAL(Workload::fromMix(""), "empty");
}

TEST(Workload, ProgramAddressesStableAcrossGrowth)
{
    Workload w;
    const int id0 = w.add(ProgramSpec::ubench(UbenchId::CpuInt, 1.0));
    EXPECT_EQ(id0, 0);
    const InstrSource *p0 = &w.program(0);
    for (int i = 0; i < 8; ++i)
        w.add(ProgramSpec::ubench(UbenchId::LdintMem, 1.0), 5);
    EXPECT_EQ(p0, &w.program(0));
    EXPECT_EQ(w.thread(3).priority, 5);
}

// --- Assignment --------------------------------------------------------

TEST(Assignment, PinnedPacksEligibleInOrder)
{
    const Assignment a = Assignment::pinned({0, 1, 2, 3}, 2);
    EXPECT_EQ(a.numCores, 2);
    EXPECT_EQ(a.core(0)[0], 0);
    EXPECT_EQ(a.core(0)[1], 1);
    EXPECT_EQ(a.core(1)[0], 2);
    EXPECT_EQ(a.core(1)[1], 3);
    for (int tid = 0; tid < 4; ++tid)
        EXPECT_EQ(a.coreOf(tid), tid / 2);
    EXPECT_EQ(a.coreOf(99), -1);

    // A partial last core stays half empty.
    const Assignment b = Assignment::pinned({7, 8, 9}, 2);
    EXPECT_EQ(b.core(1)[0], 9);
    EXPECT_EQ(b.core(1)[1], -1);
}

TEST(Assignment, PinnedOverflowPanics)
{
    EXPECT_DEATH(Assignment::pinned({0, 1, 2, 3, 4}, 2), "exceed");
}

// --- policy names ------------------------------------------------------

TEST(AllocPolicy, NamesRoundTrip)
{
    for (AllocPolicy p : {AllocPolicy::Pinned, AllocPolicy::Random,
                          AllocPolicy::Symbiosis})
        EXPECT_EQ(allocPolicyFromName(allocPolicyName(p)), p);
    EXPECT_FATAL(allocPolicyFromName("bogus"), "bogus");
}

// --- Allocator contract ------------------------------------------------

TEST(Allocator, EveryPolicyPlacesExactlyTheEligibleSetDeterministically)
{
    const std::vector<int> eligible{0, 1, 2, 3};
    const std::vector<ThreadHistory> history = uniformHistory(
        {sample(5000, 500, 5.0), sample(5000, 500, 5.0),
         sample(40000, 0, 5.0), sample(40000, 0, 5.0)},
        4);

    AllocContext ctx;
    ctx.numCores = 2;
    ctx.quantumIndex = 3;
    ctx.seed = 42;
    ctx.gctCapacity = 20;
    ctx.eligible = &eligible;
    ctx.history = &history;

    for (AllocPolicy p : {AllocPolicy::Pinned, AllocPolicy::Random,
                          AllocPolicy::Symbiosis}) {
        const Assignment a = makeAllocator(p)->decide(ctx);
        const Assignment b = makeAllocator(p)->decide(ctx);
        EXPECT_EQ(a, b) << allocPolicyName(p)
                        << ": decide() must be a pure function of the "
                           "context";
        EXPECT_EQ(placedIds(a), eligible) << allocPolicyName(p);
        EXPECT_EQ(a.numCores, 2) << allocPolicyName(p);
    }
}

TEST(Allocator, RandomRepairsAcrossQuanta)
{
    const std::vector<int> eligible{0, 1, 2, 3};
    AllocContext ctx;
    ctx.numCores = 2;
    ctx.seed = 42;
    ctx.gctCapacity = 20;
    ctx.eligible = &eligible;

    auto random = makeAllocator(AllocPolicy::Random);
    bool any_differs = false;
    Assignment first;
    for (std::uint64_t q = 0; q < 8; ++q) {
        ctx.quantumIndex = q;
        const Assignment a = random->decide(ctx);
        EXPECT_EQ(placedIds(a), eligible);
        if (q == 0)
            first = a;
        else if (a != first)
            any_differs = true;
    }
    EXPECT_TRUE(any_differs)
        << "the random policy never re-paired over 8 quanta";
}

// --- symbiosis ---------------------------------------------------------

TEST(Symbiosis, FallsBackToPinnedWithoutHistory)
{
    const std::vector<int> eligible{0, 1, 2, 3};
    const std::vector<ThreadHistory> empty_history(4);
    AllocContext ctx;
    ctx.numCores = 2;
    ctx.seed = 1;
    ctx.gctCapacity = 20;
    ctx.eligible = &eligible;
    ctx.history = &empty_history;
    EXPECT_EQ(makeAllocator(AllocPolicy::Symbiosis)->decide(ctx),
              Assignment::pinned(eligible, 2));
}

TEST(Symbiosis, SplitsMemoryStreamsAcrossCores)
{
    // Threads 0 and 1 stream through the backside (mpki 100), threads
    // 2 and 3 are compute-bound. The static packing co-schedules the
    // two streamers on core 0; the predictor's co-miss penalty must
    // pull them apart.
    const std::vector<int> eligible{0, 1, 2, 3};
    const std::vector<ThreadHistory> history = uniformHistory(
        {sample(5000, 500, 5.0), sample(5000, 500, 5.0),
         sample(40000, 0, 5.0), sample(40000, 0, 5.0)},
        4);
    AllocContext ctx;
    ctx.numCores = 2;
    ctx.seed = 1;
    ctx.gctCapacity = 20;
    ctx.eligible = &eligible;
    ctx.history = &history;

    const Assignment a = makeAllocator(AllocPolicy::Symbiosis)->decide(ctx);
    EXPECT_EQ(placedIds(a), eligible);
    EXPECT_NE(a.coreOf(0), a.coreOf(1))
        << "both memory streamers landed on the same core";
}

TEST(Symbiosis, RetainsPreviousPlacementWhenNothingToGain)
{
    // All four threads are statistically identical, so every pairing
    // scores the same; the retention bonus must keep the (non-pinned)
    // previous placement instead of thrashing back to the packing.
    const std::vector<int> eligible{0, 1, 2, 3};
    const std::vector<ThreadHistory> history = uniformHistory(
        {sample(20000, 10, 5.0), sample(20000, 10, 5.0),
         sample(20000, 10, 5.0), sample(20000, 10, 5.0)},
        4);
    Assignment previous = Assignment::empty(2);
    previous.slot[0] = {0, 2};
    previous.slot[1] = {1, 3};

    AllocContext ctx;
    ctx.numCores = 2;
    ctx.seed = 1;
    ctx.gctCapacity = 20;
    ctx.eligible = &eligible;
    ctx.history = &history;
    ctx.previous = &previous;

    EXPECT_EQ(makeAllocator(AllocPolicy::Symbiosis)->decide(ctx),
              previous);
}

// --- ThreadHistory -----------------------------------------------------

TEST(ThreadHistory, CapKeepsOnlyTheNewestSamples)
{
    ThreadHistory h;
    for (std::uint64_t i = 1; i <= 10; ++i)
        h.push(sample(100 * i, i, 1.0, 1000), 4);
    ASSERT_EQ(h.samples.size(), 4u);
    EXPECT_EQ(h.samples.front().committed, 700u);
    EXPECT_EQ(h.samples.back().committed, 1000u);
    // Mean of 700..1000 by 100.
    EXPECT_EQ(h.average().committed, 850u);
    EXPECT_DOUBLE_EQ(h.average().gctOccupancy, 1.0);
}

// --- AllocEngine -------------------------------------------------------

/**
 * Under the pinned policy the engine must be bit-identical to
 * attaching the workload once and running the chip directly — the
 * quantum machinery (detach/attach, chunked runs, attribution) may
 * not perturb the simulation, for any core count.
 */
TEST(AllocEngine, PinnedMatchesDirectChipRun)
{
    const char *mixes[] = {
        "cpu_int,ldint_mem",
        "cpu_int,ldint_mem,cpu_fp,ldint_l2",
        "cpu_int,ldint_mem,cpu_fp,ldint_l2,ldint_l1,br_hit,cpu_int,"
        "ldint_mem",
    };
    const int cores[] = {1, 2, 4};
    constexpr Cycle total = 20000;

    for (int i = 0; i < 3; ++i) {
        const Workload workload = Workload::fromMix(mixes[i]);
        ChipParams params;
        params.numCores = cores[i];

        Chip engine_chip(params);
        SchedParams sched;
        sched.quantum = 5000;
        AllocEngine engine(engine_chip, workload, sched, 1);
        const AllocRunResult res = engine.run(total);

        Chip direct(params);
        for (int t = 0; t < workload.size(); ++t)
            direct.core(t / num_hw_threads)
                .attachThread(static_cast<ThreadId>(t % num_hw_threads),
                              &workload.program(t),
                              workload.thread(t).priority);
        direct.run(total);

        EXPECT_EQ(res.migrations, 0u) << mixes[i];
        EXPECT_EQ(res.quanta, 4u) << mixes[i];
        EXPECT_EQ(res.checkViolations, 0u) << mixes[i];
        EXPECT_EQ(res.cycles, total) << mixes[i];
        for (int t = 0; t < workload.size(); ++t) {
            const auto direct_committed =
                direct.core(t / num_hw_threads)
                    .committedOf(
                        static_cast<ThreadId>(t % num_hw_threads));
            EXPECT_EQ(res.threads[static_cast<std::size_t>(t)].committed,
                      direct_committed)
                << mixes[i] << " thread " << t;
            EXPECT_EQ(res.threads[static_cast<std::size_t>(t)]
                          .cyclesScheduled,
                      total)
                << mixes[i] << " thread " << t;
        }
    }
}

TEST(AllocEngine, OversubscribedWorkloadRotatesFairly)
{
    // Six runnable threads on one 2-context core: with quantum 2000
    // over 12000 cycles (six quanta, twelve slots), round-robin
    // fairness gives every thread exactly two quanta.
    const Workload workload = Workload::fromMix(
        "cpu_int,ldint_mem,cpu_fp,ldint_l1,ldint_l2,br_hit");
    ChipParams params;
    params.numCores = 1;
    Chip chip(params);
    SchedParams sched;
    sched.quantum = 2000;
    AllocEngine engine(chip, workload, sched, 1);
    const AllocRunResult res = engine.run(12000);

    EXPECT_EQ(res.quanta, 6u);
    EXPECT_EQ(res.checkViolations, 0u);
    for (int t = 0; t < workload.size(); ++t) {
        EXPECT_EQ(
            res.threads[static_cast<std::size_t>(t)].cyclesScheduled,
            4000u)
            << "thread " << t;
        EXPECT_GT(res.threads[static_cast<std::size_t>(t)].committed, 0u)
            << "thread " << t;
    }
}

TEST(AllocEngine, ConservesCommittedInstructionsAcrossPolicies)
{
    const Workload workload =
        Workload::fromMix("cpu_int,ldint_mem,cpu_fp,ldint_l2");
    for (AllocPolicy p : {AllocPolicy::Pinned, AllocPolicy::Random,
                          AllocPolicy::Symbiosis}) {
        ChipParams params;
        params.numCores = 2;
        Chip chip(params);
        SchedParams sched;
        sched.policy = p;
        sched.quantum = 2000;
        AllocEngine engine(chip, workload, sched, 7);
        const AllocRunResult res = engine.run(16000);

        EXPECT_EQ(res.checkViolations, 0u) << allocPolicyName(p);
        EXPECT_EQ(res.quanta, 8u) << allocPolicyName(p);
        ASSERT_EQ(res.log.size(), 8u) << allocPolicyName(p);
        std::uint64_t per_thread = 0;
        for (const AllocThreadTotals &t : res.threads)
            per_thread += t.committed;
        EXPECT_EQ(per_thread, res.committed) << allocPolicyName(p);
        EXPECT_DOUBLE_EQ(res.aggregateIpc,
                         static_cast<double>(res.committed) /
                             static_cast<double>(res.cycles))
            << allocPolicyName(p);
    }
}

TEST(AllocEngine, RandomPolicyReproducibleFromSeed)
{
    const Workload workload =
        Workload::fromMix("cpu_int,ldint_mem,cpu_fp,ldint_l2");
    auto study = [&workload]() {
        ChipParams params;
        params.numCores = 2;
        Chip chip(params);
        SchedParams sched;
        sched.policy = AllocPolicy::Random;
        sched.quantum = 2000;
        AllocEngine engine(chip, workload, sched, 99);
        return engine.run(16000);
    };
    const AllocRunResult a = study();
    const AllocRunResult b = study();
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.committed, b.committed);
    ASSERT_EQ(a.log.size(), b.log.size());
    for (std::size_t q = 0; q < a.log.size(); ++q)
        EXPECT_EQ(a.log[q].assignment, b.log[q].assignment)
            << "quantum " << q;
}

// --- QuantumMonitor ----------------------------------------------------

TEST(QuantumMonitor, RecordsSymbiosisSeriesWithoutTouchingScalars)
{
    CoreParams params;
    SmtCore core(params);
    auto p = test::independentAlus(100000);
    auto s = test::dramChase(10000);
    core.attachThread(0, &p);
    core.attachThread(1, &s);

    const std::vector<std::string> scalars_before = core.stats().names();
    QuantumMonitor monitor(core, 1000);
    EXPECT_EQ(core.stats().names(), scalars_before)
        << "attaching a sampler must not change the scalar stat set";

    for (int i = 0; i < 40; ++i) {
        core.run(250);
        monitor.poll();
    }
    EXPECT_EQ(monitor.quantaRecorded(), 10u);

    for (const char *name :
         {"thread0.symbiosis.ipc", "thread0.symbiosis.l2Misses",
          "thread0.symbiosis.gctOccupancy", "thread1.symbiosis.ipc",
          "thread1.symbiosis.l2Misses",
          "thread1.symbiosis.gctOccupancy"}) {
        ASSERT_TRUE(core.stats().hasSeries(name)) << name;
        EXPECT_EQ(core.stats().series(name).size(),
                  monitor.quantaRecorded())
            << name;
    }

    // The ALU thread commits every quantum; the DRAM chaser misses
    // beyond L2. Both facts must be visible in the recorded series.
    const auto &ipc0 = core.stats().series("thread0.symbiosis.ipc");
    EXPECT_GT(*std::min_element(ipc0.begin(), ipc0.end()), 0.0);
    const auto &l2m1 =
        core.stats().series("thread1.symbiosis.l2Misses");
    EXPECT_GT(*std::max_element(l2m1.begin(), l2m1.end()), 0.0);

    // dumpJson() carries the series as arrays, so a `p5sim run` JSON
    // dump suffices to replay allocation decisions offline.
    std::ostringstream os;
    {
        JsonWriter w(os);
        core.stats().dumpJson(w);
    }
    const JsonValue stats = parseJson(os.str(), "stats");
    const JsonValue *series = stats.find("thread0.symbiosis.ipc");
    ASSERT_NE(series, nullptr);
    ASSERT_TRUE(series->isArray());
    EXPECT_EQ(series->elements().size(), monitor.quantaRecorded());
}

// --- ChipConservation --------------------------------------------------

TEST(ChipConservation, CleanRunHasNoViolations)
{
    CoreParams base;
    Chip chip(base);
    auto p0 = test::independentAlus(100000);
    auto p1 = test::dramChase(10000);
    chip.core(0).attachThread(0, &p0);
    chip.core(1).attachThread(0, &p1);

    check::ChipConservation checker(chip);
    checker.onQuantumBoundary(0); // baseline

    std::uint64_t before = 0;
    for (int c = 0; c < chip.numCores(); ++c)
        for (ThreadId t = 0; t < num_hw_threads; ++t)
            before += chip.core(c).committedOf(t);
    chip.run(5000);
    std::uint64_t after = 0;
    for (int c = 0; c < chip.numCores(); ++c)
        for (ThreadId t = 0; t < num_hw_threads; ++t)
            after += chip.core(c).committedOf(t);

    checker.onQuantumBoundary(after - before);
    EXPECT_EQ(checker.violations(), 0u);
}

TEST(ChipConservation, DetectsMisattributionAndLockstepBreach)
{
    CoreParams base;
    Chip chip(base);
    auto p0 = test::independentAlus(100000);
    chip.core(0).attachThread(0, &p0);

    check::ChipConservation checker(chip);
    checker.onQuantumBoundary(0);
    chip.run(1000);
    // Attribute zero instructions against a quantum that committed
    // plenty: the conservation term must fire.
    checker.onQuantumBoundary(0);
    EXPECT_GE(checker.violations(), 1u);

    // Advance core 0 behind the chip's back: the lockstep term fires.
    const std::uint64_t so_far = checker.violations();
    chip.core(0).tick();
    const std::uint64_t committed_delta =
        chip.core(0).committedOf(0); // upper bound, value irrelevant
    (void)committed_delta;
    checker.onQuantumBoundary(0);
    EXPECT_GT(checker.violations(), so_far);
}

} // namespace
} // namespace p5
