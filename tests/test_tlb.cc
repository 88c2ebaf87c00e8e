/**
 * @file
 * Unit tests for the D-TLB model.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "lru_reference.hh"
#include "mem/tlb.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

TlbParams
smallTlb()
{
    return TlbParams{"t", 8, 2, 4096, 100};
}

TEST(Tlb, MissChargesWalkThenHits)
{
    Tlb t(smallTlb());
    TlbResult r = t.access(0x1234);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, 100);
    r = t.access(0x1FFF); // same page
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 0);
    EXPECT_EQ(t.hits(), 1u);
    EXPECT_EQ(t.misses(), 1u);
}

TEST(Tlb, DistinctPagesMissSeparately)
{
    Tlb t(smallTlb());
    t.access(0x0000);
    TlbResult r = t.access(0x2000);
    EXPECT_FALSE(r.hit);
}

TEST(Tlb, LruWithinSet)
{
    Tlb t(smallTlb()); // 4 sets x 2 ways
    // Pages 0, 4, 8 map to set 0 (vpn % 4 == 0).
    t.access(0x0000);           // vpn 0
    t.access(4ull * 4096);      // vpn 4
    t.access(0x0000);           // refresh vpn 0
    t.access(8ull * 4096);      // vpn 8 evicts vpn 4
    EXPECT_TRUE(t.probe(0x0000));
    EXPECT_FALSE(t.probe(4ull * 4096));
    EXPECT_TRUE(t.probe(8ull * 4096));
}

TEST(Tlb, ProbeHasNoSideEffects)
{
    Tlb t(smallTlb());
    EXPECT_FALSE(t.probe(0x5000));
    EXPECT_EQ(t.misses(), 0u);
    t.access(0x5000);
    EXPECT_TRUE(t.probe(0x5000));
}

TEST(Tlb, FlushAll)
{
    Tlb t(smallTlb());
    t.access(0x0000);
    t.flushAll();
    EXPECT_FALSE(t.probe(0x0000));
}

TEST(Tlb, CapacityReach)
{
    Tlb t(smallTlb()); // 8 entries
    for (Addr p = 0; p < 8; ++p)
        t.access(p * 4096);
    for (Addr p = 0; p < 8; ++p)
        EXPECT_TRUE(t.probe(p * 4096));
    // One more page in some set evicts exactly one entry.
    t.access(8ull * 4096);
    int resident = 0;
    for (Addr p = 0; p < 9; ++p)
        if (t.probe(p * 4096))
            ++resident;
    EXPECT_EQ(resident, 8);
}

// Differential: the page shift and the single-walk fill must
// reproduce the divide formula's lookup-then-insert sequence on every
// geometry: hit or miss and its walk charge, the victim (first invalid
// way, else LRU) and all four counters, through flushes.
TEST(Tlb, ShiftIndexingMatchesTheDivideFormula)
{
    std::uint64_t geometry = 0;
    for (const std::uint64_t page : {4096ULL, 65536ULL, 1ULL << 24}) {
        for (const int sets : {1, 4, 256}) {
            for (const int assoc : {1, 2, 4, 16}) {
                SCOPED_TRACE(testing::Message()
                             << page << "B pages, " << sets << " sets, "
                             << assoc << " ways");
                Tlb t(TlbParams{"diff", sets * assoc, assoc, page, 100});
                test::LruReference ref(page, sets, assoc);
                Rng rng(0x71b5eedULL + geometry++);

                // Pages collide over at most four sets, as in the cache
                // test; one access in eight is uniformly random.
                const std::uint64_t span =
                    page * static_cast<std::uint64_t>(sets);
                const std::vector<std::uint64_t> tags =
                    test::collidingTags(rng, span, 3 * assoc);
                const int hot_sets = std::min(sets, 4);
                for (int op = 0; op < 4000; ++op) {
                    Addr addr = rng.next();
                    if (!rng.chance(0.125))
                        addr = tags[rng.below(tags.size())] * span +
                               rng.below(hot_sets) * page + rng.below(page);
                    if (rng.chance(0.25)) {
                        ASSERT_EQ(t.probe(addr), ref.probe(addr)) << op;
                    } else if (rng.chance(0.005)) {
                        t.flushAll();
                        ref.flushAll();
                    } else {
                        const bool hit = ref.access(addr);
                        const TlbResult r = t.access(addr);
                        ASSERT_EQ(r.hit, hit) << op;
                        ASSERT_EQ(r.latency, hit ? 0 : 100) << op;
                        if (const auto victim = ref.lastVictim()) {
                            ASSERT_FALSE(t.probe(*victim)) << op;
                        }
                    }
                    ASSERT_EQ(t.hits(), ref.hits) << op;
                    ASSERT_EQ(t.misses(), ref.misses) << op;
                    ASSERT_EQ(t.insertions(), ref.insertions) << op;
                    ASSERT_EQ(t.evictions(), ref.evictions) << op;
                }
            }
        }
    }
}

TEST(TlbDeath, BadGeometryIsFatal)
{
    TlbParams p{"bad", 7, 2, 4096, 100};
    EXPECT_FATAL({ Tlb t(p); }, "bad geometry");
}

} // namespace
} // namespace p5
