/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "lru_reference.hh"
#include "mem/cache.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

CacheParams
smallCache()
{
    // 4 sets x 2 ways x 64B lines = 512 B.
    return CacheParams{"small", 512, 2, 64, 2, 3};
}

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x100)); // the miss fills the line
    EXPECT_TRUE(c.access(0x100));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.insertions(), 1u);
}

TEST(Cache, SameLineDifferentOffsets)
{
    Cache c(smallCache());
    c.access(0x100);
    EXPECT_TRUE(c.access(0x13F)); // same 64B line
    EXPECT_FALSE(c.probe(0x140)); // next line
}

TEST(Cache, LruEviction)
{
    Cache c(smallCache());
    // Three lines mapping to the same set (set stride = 4 * 64 = 256).
    c.access(0x000);
    c.access(0x100);
    c.access(0x000); // make 0x000 MRU
    c.access(0x200); // evicts LRU = 0x100
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_TRUE(c.probe(0x200));
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache c(smallCache());
    c.access(0x000);
    c.access(0x100);
    // Probing 0x000 must NOT refresh it.
    c.probe(0x000);
    c.access(0x100); // 0x100 MRU
    c.access(0x200); // evicts 0x000 (still LRU)
    EXPECT_FALSE(c.probe(0x000));
    std::uint64_t hits = c.hits();
    c.probe(0x100);
    EXPECT_EQ(c.hits(), hits); // probe doesn't count stats
}

TEST(Cache, FlushAll)
{
    Cache c(smallCache());
    c.access(0x000);
    c.access(0x100);
    c.flushAll();
    EXPECT_FALSE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x100));
    // A flushed way is invalid again: refilling it evicts nothing.
    c.access(0x000);
    EXPECT_EQ(c.evictions(), 0u);
}

TEST(Cache, InsertExistingRefreshesRecency)
{
    Cache c(smallCache());
    c.access(0x000);
    c.access(0x100);
    c.access(0x000); // hit: refresh, no new insertion slot taken
    EXPECT_EQ(c.insertions(), 2u);
    c.access(0x200); // evict 0x100
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x100));
}

TEST(Cache, ReserveServiceEnforcesGap)
{
    Cache c(smallCache()); // gap 3
    EXPECT_EQ(c.reserveService(10, 10), 10u);
    EXPECT_EQ(c.reserveService(10, 10), 13u);
    EXPECT_EQ(c.reserveService(10, 10), 16u);
    EXPECT_EQ(c.reserveService(20, 20), 20u);
}

TEST(Cache, FutureReservationDoesNotBlockPresent)
{
    Cache c(smallCache()); // gap 3
    // A request issued now but serviceable far in the future...
    EXPECT_EQ(c.reserveService(10, 1000), 1000u);
    // ...must not stall the next present-time request by more than one
    // service slot.
    EXPECT_LE(c.reserveService(11, 11), 14u);
}

TEST(CacheDeath, BadGeometryIsFatal)
{
    CacheParams p{"bad", 0, 4, 64, 1, 1};
    EXPECT_FATAL({ Cache c(p); }, "bad geometry");
}

TEST(CacheDeath, NonPow2LineIsFatal)
{
    CacheParams p{"bad", 512, 2, 48, 1, 1};
    EXPECT_FATAL({ Cache c(p); }, "power of two");
}

// Property: a working set that fits is fully resident after one pass,
// regardless of geometry.
class CacheResidencyTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheResidencyTest, FittingSetStaysResident)
{
    auto [assoc, line] = GetParam();
    CacheParams p{"param", 16 * 1024, assoc, line, 2, 1};
    Cache c(p);
    const int lines = static_cast<int>(p.sizeBytes) / line;
    for (int i = 0; i < lines; ++i)
        c.access(static_cast<Addr>(i) * static_cast<Addr>(line));
    for (int i = 0; i < lines; ++i)
        EXPECT_TRUE(
            c.probe(static_cast<Addr>(i) * static_cast<Addr>(line)));
    EXPECT_EQ(c.evictions(), 0u);
}

TEST_P(CacheResidencyTest, OversizedCyclicSetAlwaysMisses)
{
    auto [assoc, line] = GetParam();
    CacheParams p{"param", 16 * 1024, assoc, line, 2, 1};
    Cache c(p);
    const int lines = 2 * static_cast<int>(p.sizeBytes) / line;
    // Two full passes: with LRU and a cyclic access pattern twice the
    // capacity, the second pass must miss every line.
    for (int pass = 0; pass < 2; ++pass) {
        std::uint64_t misses_before = c.misses();
        for (int i = 0; i < lines; ++i)
            c.access(static_cast<Addr>(i) * static_cast<Addr>(line));
        EXPECT_EQ(c.misses() - misses_before,
                  static_cast<std::uint64_t>(lines));
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheResidencyTest,
                         ::testing::Combine(::testing::Values(1, 2, 4,
                                                              8),
                                            ::testing::Values(64, 128,
                                                              256)));

// Differential: the single-walk access() with shift-and-mask indexing
// must reproduce the divide formula's lookup-then-insert sequence on
// every geometry: hit or miss, the victim (first invalid way, else
// LRU), and all four counters, through invalidations and flushes.
TEST(Cache, ShiftIndexingMatchesTheDivideFormula)
{
    std::uint64_t geometry = 0;
    for (const int line : {32, 64, 128, 256}) {
        for (const std::uint64_t sets : {1, 2, 64, 1024, 4096}) {
            for (const int assoc : {1, 2, 4, 8, 16}) {
                SCOPED_TRACE(testing::Message()
                             << line << "B lines, " << sets << " sets, "
                             << assoc << " ways");
                const std::uint64_t span =
                    sets * static_cast<std::uint64_t>(line);
                Cache c(CacheParams{"diff", span * assoc, assoc, line, 2,
                                    1});
                test::LruReference ref(line, sets, assoc);
                Rng rng(0xd1ff5eedULL + geometry++);

                // Tags from a pool three times the associativity, over
                // at most four sets, so lines collide and evict; one
                // access in eight is a uniformly random address. Pool
                // tags are neighbours of one base or differ from it in
                // one bit, so dropping any tag bit aliases two of them.
                const std::vector<std::uint64_t> tags =
                    test::collidingTags(rng, span, 3 * assoc);
                const std::uint64_t hot_sets = std::min<std::uint64_t>(
                    sets, 4);
                for (int op = 0; op < 4000; ++op) {
                    Addr addr = rng.next();
                    if (!rng.chance(0.125))
                        addr = tags[rng.below(tags.size())] * span +
                               rng.below(hot_sets) * line +
                               rng.below(line);
                    const std::uint64_t kind = rng.below(4);
                    if (kind == 0) {
                        ASSERT_EQ(c.probe(addr), ref.probe(addr)) << op;
                    } else if (kind == 1 && rng.chance(0.1)) {
                        c.invalidate(addr);
                        ref.invalidate(addr);
                    } else if (kind == 1 && rng.chance(0.02)) {
                        c.flushAll();
                        ref.flushAll();
                    } else {
                        ASSERT_EQ(c.access(addr), ref.access(addr)) << op;
                        ASSERT_TRUE(c.probe(addr)) << op;
                        if (const auto victim = ref.lastVictim()) {
                            ASSERT_FALSE(c.probe(*victim)) << op;
                        }
                    }
                    ASSERT_EQ(c.hits(), ref.hits) << op;
                    ASSERT_EQ(c.misses(), ref.misses) << op;
                    ASSERT_EQ(c.insertions(), ref.insertions) << op;
                    ASSERT_EQ(c.evictions(), ref.evictions) << op;
                }
            }
        }
    }
}

} // namespace
} // namespace p5
