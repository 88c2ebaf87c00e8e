/**
 * @file
 * Unit tests for the bimodal branch history table.
 */

#include <gtest/gtest.h>

#include "branch/bht.hh"
#include "common/rng.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

TEST(Bht, InitiallyPredictsNotTaken)
{
    Bht bht(BhtParams{64});
    EXPECT_FALSE(bht.predict(0x40));
}

TEST(Bht, TrainsToTaken)
{
    Bht bht(BhtParams{64});
    bht.update(0x40, true);
    bht.update(0x40, true);
    EXPECT_TRUE(bht.predict(0x40));
}

TEST(Bht, HysteresisSurvivesOneFlip)
{
    Bht bht(BhtParams{64});
    for (int i = 0; i < 4; ++i)
        bht.update(0x40, true); // saturate at 3
    bht.update(0x40, false);    // 2: still predicts taken
    EXPECT_TRUE(bht.predict(0x40));
    bht.update(0x40, false);    // 1: now not-taken
    EXPECT_FALSE(bht.predict(0x40));
}

TEST(Bht, UpdateReturnsPreUpdatePrediction)
{
    Bht bht(BhtParams{64});
    // Counters start at 1 (weakly not-taken): the first update sees
    // not-taken, the second already sees taken (counter reached 2).
    EXPECT_FALSE(bht.update(0x40, true));
    EXPECT_TRUE(bht.update(0x40, true));
    EXPECT_TRUE(bht.update(0x40, true));
}

TEST(Bht, PerfectlyRegularBranchIsNearPerfect)
{
    Bht bht(BhtParams{1024});
    for (int i = 0; i < 1000; ++i)
        bht.update(0x100, true);
    EXPECT_GT(bht.accuracy(), 0.99);
}

TEST(Bht, RandomBranchIsNearChance)
{
    Bht bht(BhtParams{1024});
    for (std::uint64_t i = 0; i < 20000; ++i)
        bht.update(0x100, (hashMix(i) & 1) != 0);
    EXPECT_NEAR(bht.accuracy(), 0.5, 0.05);
}

TEST(Bht, DistinctPcsAreIndependent)
{
    Bht bht(BhtParams{1024});
    for (int i = 0; i < 10; ++i) {
        bht.update(0x100, true);
        bht.update(0x200, false);
    }
    EXPECT_TRUE(bht.predict(0x100));
    EXPECT_FALSE(bht.predict(0x200));
}

TEST(Bht, AliasingWrapsByTableSize)
{
    Bht bht(BhtParams{16});
    // PCs 0x0 and 16*4 = 0x40 alias in a 16-entry table (>>2 index).
    bht.update(0x0, true);
    bht.update(0x0, true);
    EXPECT_TRUE(bht.predict(0x40));
}

TEST(Bht, ResetRestoresWeaklyNotTaken)
{
    Bht bht(BhtParams{64});
    bht.update(0x40, true);
    bht.update(0x40, true);
    bht.reset();
    EXPECT_FALSE(bht.predict(0x40));
}

TEST(Bht, StatsCount)
{
    Bht bht(BhtParams{64});
    bht.predict(0x40);
    bht.update(0x40, false); // correct
    bht.update(0x40, true);  // mispredict
    EXPECT_EQ(bht.lookups(), 1u);
    EXPECT_EQ(bht.correct(), 1u);
    EXPECT_EQ(bht.mispredicts(), 1u);
}

TEST(BhtDeath, NonPow2IsFatal)
{
    EXPECT_FATAL({ Bht bht(BhtParams{100}); }, "power of two");
}

} // namespace
} // namespace p5
