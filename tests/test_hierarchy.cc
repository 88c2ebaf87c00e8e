/**
 * @file
 * Unit tests for the cache hierarchy and the shared backside.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace p5 {
namespace {

HierarchyParams
tinyHierarchy()
{
    HierarchyParams p;
    p.l1d = CacheParams{"l1d", 1024, 2, 64, 2, 1};
    p.l2 = CacheParams{"l2", 8 * 1024, 4, 64, 13, 4};
    p.l3 = CacheParams{"l3", 64 * 1024, 4, 64, 87, 10};
    p.tlb = TlbParams{"dtlb", 16, 2, 4096, 100};
    p.dramLatency = 230;
    p.dramServiceGap = 24;
    return p;
}

TEST(Hierarchy, ColdAccessGoesToDram)
{
    CacheHierarchy h(tinyHierarchy());
    MemAccessResult r = h.access(0, 4096, 0);
    EXPECT_EQ(r.level, MemLevel::Mem);
    EXPECT_TRUE(r.tlbMiss);
    // TLB walk (100) + DRAM (230).
    EXPECT_GE(r.doneCycle, 330u);
}

TEST(Hierarchy, FillsAllLevelsInclusively)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x2000, 0);
    EXPECT_TRUE(h.l1d().probe(0x2000));
    EXPECT_TRUE(h.backside().l2().probe(0x2000));
    EXPECT_TRUE(h.backside().l3().probe(0x2000));
}

TEST(Hierarchy, L1HitIsFast)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x2000, 0);
    MemAccessResult r = h.access(0, 0x2000, 1000);
    EXPECT_EQ(r.level, MemLevel::L1);
    EXPECT_FALSE(r.tlbMiss);
    EXPECT_EQ(r.doneCycle, 1002u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    auto params = tinyHierarchy();
    CacheHierarchy h(params);
    // Fill L1 (1 KiB / 64B = 16 lines) twice over to evict line 0.
    for (Addr a = 0; a < 2 * 1024; a += 64)
        h.access(0, a, 0);
    EXPECT_FALSE(h.l1d().probe(0));
    MemAccessResult r = h.access(0, 0, 10000);
    EXPECT_EQ(r.level, MemLevel::L2);
}

TEST(Hierarchy, PerThreadTlbs)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x4000, 0);
    EXPECT_TRUE(h.tlb(0).probe(0x4000));
    EXPECT_FALSE(h.tlb(1).probe(0x4000));
    EXPECT_EQ(h.tlbMissesOf(0), 1u);
    EXPECT_EQ(h.tlbMissesOf(1), 0u);
}

TEST(Hierarchy, PerThreadMissCounters)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(1, 0x8000, 0);
    EXPECT_EQ(h.l1MissesOf(1), 1u);
    EXPECT_EQ(h.beyondL2Of(1), 1u);
    EXPECT_EQ(h.l1MissesOf(0), 0u);
}

TEST(Hierarchy, SharedBacksideSeesBothFrontends)
{
    auto params = tinyHierarchy();
    MemBackside shared(params);
    CacheHierarchy core0(params, &shared);
    CacheHierarchy core1(params, &shared);

    core0.access(0, 0xA000, 0);
    // Core 1 misses its own L1 but hits the shared L2.
    MemAccessResult r = core1.access(0, 0xA000, 1000);
    EXPECT_EQ(r.level, MemLevel::L2);
}

TEST(Hierarchy, DramBandwidthGate)
{
    auto params = tinyHierarchy();
    CacheHierarchy h(params);
    // Warm the TLB page so the measured pair has no walk skew.
    h.access(0, 1ull << 20, 0);
    MemAccessResult a = h.access(0, (1ull << 20) + 64, 500);
    MemAccessResult b = h.access(0, (1ull << 20) + 128, 500);
    EXPECT_FALSE(a.tlbMiss);
    EXPECT_EQ(a.level, MemLevel::Mem);
    // Second DRAM access waits one service gap.
    EXPECT_EQ(b.doneCycle - a.doneCycle,
              static_cast<Cycle>(params.dramServiceGap));
}

TEST(Hierarchy, FlushAllDropsEverything)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x2000, 0);
    h.flushAll();
    EXPECT_FALSE(h.l1d().probe(0x2000));
    EXPECT_FALSE(h.backside().l2().probe(0x2000));
    EXPECT_FALSE(h.backside().l3().probe(0x2000));
    EXPECT_FALSE(h.tlb(0).probe(0x2000));
}

TEST(Hierarchy, LevelNames)
{
    EXPECT_STREQ(memLevelName(MemLevel::L1), "L1");
    EXPECT_STREQ(memLevelName(MemLevel::Mem), "Mem");
}

TEST(Hierarchy, StoreFollowsLoadPath)
{
    CacheHierarchy h(tinyHierarchy());
    // Stores walk the load path: a miss allocates the line.
    EXPECT_EQ(h.walk(0, 0x3000), MemLevel::Mem);
    EXPECT_TRUE(h.l1d().probe(0x3000));
    EXPECT_EQ(h.walk(0, 0x3000), MemLevel::L1);
}

} // namespace
} // namespace p5
