/**
 * @file
 * N-core Chip tests: parameter validation, the lockstep run()/tick()
 * equivalence (with coordinated fast-forward on and off), and the
 * paper's OS-noise methodology — noise pinned to core 0 contends with
 * a measured core only through the shared L2/L3/DRAM backside.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/chip.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

/** Per-(core, thread) committed counts of @p chip. */
std::vector<std::uint64_t>
committedSnapshot(const Chip &chip)
{
    std::vector<std::uint64_t> out;
    for (int c = 0; c < chip.numCores(); ++c)
        for (ThreadId t = 0; t < num_hw_threads; ++t)
            out.push_back(chip.core(c).committedOf(t));
    return out;
}

TEST(ChipN, ParamsBuildNCoresWithDistinctIds)
{
    for (int n : {1, 3, 4, max_cores}) {
        ChipParams params;
        params.numCores = n;
        Chip chip(params);
        EXPECT_EQ(chip.numCores(), n);
        for (int c = 0; c < n; ++c)
            EXPECT_EQ(chip.core(c).params().coreId, c);
        EXPECT_DEATH(chip.core(n), "out of range");
    }
}

TEST(ChipN, CoreCountValidated)
{
    ChipParams params;
    params.numCores = 0;
    EXPECT_FATAL(Chip{params}, "out of range");
    params.numCores = max_cores + 1;
    EXPECT_FATAL(Chip{params}, "out of range");
}

TEST(ChipN, CompatConstructorIsDualCore)
{
    CoreParams base;
    Chip chip(base);
    EXPECT_EQ(chip.numCores(), 2);
    EXPECT_EQ(chip.core(0).params().coreId, 0);
    EXPECT_EQ(chip.core(1).params().coreId, 1);
}

/**
 * chip.run() with the coordinated fast-forward must be bit-identical
 * to ticking every core cycle-by-cycle, for any core count. DRAM
 * chases leave long all-cores-idle gaps, so the joint skip engages
 * hard here; this is the regression guard for the reused-IdleGate bug
 * (a stale canUse[] latch made every probe after the first fail).
 */
TEST(ChipN, RunMatchesTickLoopForAnyCoreCount)
{
    for (int n : {1, 2, 4}) {
        ChipParams params;
        params.numCores = n;
        params.core.fastForward = true;
        Chip fast(params);
        params.core.fastForward = false;
        Chip slow(params);

        std::vector<SyntheticProgram> progs;
        progs.reserve(2 * static_cast<std::size_t>(n));
        for (int c = 0; c < n; ++c) {
            progs.push_back(test::dramChase(10000));
            progs.push_back(test::dramChase(10000));
        }
        for (int c = 0; c < n; ++c)
            for (ThreadId t = 0; t < num_hw_threads; ++t) {
                const auto &p =
                    progs[static_cast<std::size_t>(2 * c + t)];
                fast.core(c).attachThread(t, &p);
                slow.core(c).attachThread(t, &p);
            }

        constexpr Cycle cycles = 30000;
        fast.run(cycles);
        for (Cycle i = 0; i < cycles; ++i)
            slow.tick();

        EXPECT_EQ(fast.cycle(), slow.cycle()) << n << " cores";
        EXPECT_EQ(committedSnapshot(fast), committedSnapshot(slow))
            << n << " cores";
        EXPECT_EQ(fast.backside().l2().misses(),
                  slow.backside().l2().misses())
            << n << " cores";
    }
}

/**
 * Same identity with heterogeneous per-core workloads: compute-bound
 * cores are never individually idle, so the joint skip must correctly
 * refuse (a skip while any core can progress would reorder backside
 * arrivals).
 */
TEST(ChipN, FastForwardIdentityWithMixedWorkloads)
{
    ChipParams params;
    params.numCores = 4;
    params.core.fastForward = true;
    Chip fast(params);
    params.core.fastForward = false;
    Chip slow(params);

    auto mem_a = test::dramChase(10000);
    auto mem_b = test::dramChase(10000);
    auto alu = test::independentAlus(100000);
    auto chain = test::serialChain(100000);
    const SyntheticProgram *progs[4] = {&mem_a, &mem_b, &alu, &chain};
    for (int c = 0; c < 4; ++c) {
        fast.core(c).attachThread(0, progs[c]);
        slow.core(c).attachThread(0, progs[c]);
    }

    fast.run(20000);
    slow.run(20000);
    EXPECT_EQ(committedSnapshot(fast), committedSnapshot(slow));
    EXPECT_EQ(fast.backside().l3().misses(),
              slow.backside().l3().misses());
}

/**
 * A high-rate stream into the shared backside: 132 KiB-strided loads
 * alias into two L1 sets (17 lines vs 4 ways: guaranteed L1 misses)
 * but spread over L2 sets and TLB sets (the 33-page stride is coprime
 * with the TLB set count), so after one warm lap every access is a
 * TLB-resident L2 hit. Four independent loads per iteration give the
 * memory-level parallelism that presses on the shared L2 service
 * gate — a single self-chained chase is latency-bound and leaves the
 * gate idle. Distinct @p region_base per thread keeps one thread's
 * lines from warming the shared caches for another.
 */
SyntheticProgram
backsideStream(Addr region_base, std::uint64_t iterations = 10000)
{
    ProgramBuilder b("backside_stream");
    constexpr Addr stride = 132 * 1024;
    int pats[4];
    for (int k = 0; k < 4; ++k)
        pats[k] = b.memPattern(
            region_base + static_cast<Addr>(k) * 256 * 1024 * 1024,
            stride, 17 * stride);
    b.beginPhase(iterations);
    for (int k = 0; k < 4; ++k)
        b.load(static_cast<RegIndex>(k + 1), pats[k], 20);
    return b.build();
}

/**
 * The paper's Sec. 3 methodology: OS noise is pinned to core 0 so the
 * measured core contends with it only below the private L1s. A
 * memory-bound measured thread must slow down when core 0 streams
 * through the shared backside...
 */
TEST(ChipN, BacksideNoiseSlowsMemoryBoundMeasuredCore)
{
    CoreParams base;
    constexpr Addr gib = 1024 * 1024 * 1024;
    // Offset each thread's region so the three streams use disjoint
    // lines without stacking in one L2/L3 set family.
    auto measure = [&](bool with_noise) {
        Chip chip(base);
        auto measured = backsideStream(0);
        auto noise0 = backsideStream(2 * gib + 16 * 1024);
        auto noise1 = backsideStream(4 * gib + 32 * 1024);
        chip.core(1).attachThread(0, &measured);
        if (with_noise) {
            chip.core(0).attachThread(0, &noise0);
            chip.core(0).attachThread(1, &noise1);
        }
        chip.run(60000);
        return chip.core(1).committedOf(0);
    };
    const std::uint64_t quiet = measure(false);
    const std::uint64_t noisy = measure(true);
    EXPECT_GT(quiet, 0u);
    EXPECT_LT(noisy, quiet);
}

/**
 * ...while a compute-bound measured thread, which never leaves its
 * core, is bit-identically unaffected by the same noise — the only
 * shared resource on the chip is the backside.
 */
TEST(ChipN, ComputeBoundMeasuredCoreImmuneToBacksideNoise)
{
    CoreParams base;
    auto measure = [&](bool with_noise) {
        Chip chip(base);
        auto measured = test::independentAlus(100000);
        auto noise0 = test::dramChase(10000);
        auto noise1 = test::dramChase(10000);
        chip.core(1).attachThread(0, &measured);
        if (with_noise) {
            chip.core(0).attachThread(0, &noise0);
            chip.core(0).attachThread(1, &noise1);
        }
        chip.run(20000);
        return chip.core(1).committedOf(0);
    };
    const std::uint64_t quiet = measure(false);
    const std::uint64_t noisy = measure(true);
    EXPECT_GT(quiet, 0u);
    EXPECT_EQ(noisy, quiet);
}

#ifndef NDEBUG
/**
 * Advancing one core behind the chip's back violates the lockstep
 * contract; debug builds assert on the next chip-level cycle() read.
 */
TEST(ChipN, LockstepViolationAssertsInDebug)
{
    CoreParams base;
    Chip chip(base);
    chip.run(10);
    chip.core(0).tick();
    EXPECT_DEATH(chip.cycle(), "lockstep");
}
#endif

} // namespace
} // namespace p5
