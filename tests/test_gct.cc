/**
 * @file
 * Unit tests for the Global Completion Table.
 */

#include <gtest/gtest.h>

#include "core/gct.hh"

namespace p5 {
namespace {

TEST(Gct, AllocateAndRetire)
{
    Gct gct(4);
    EXPECT_TRUE(gct.hasFreeGroup());
    gct.allocate(0, 0, 5);
    gct.allocate(0, 5, 3);
    EXPECT_EQ(gct.occupancy(), 2);
    EXPECT_EQ(gct.occupancyOf(0), 2);
    EXPECT_EQ(gct.oldest(0).startSeq, 0u);
    EXPECT_EQ(gct.oldest(0).count, 5);
    gct.popOldest(0);
    EXPECT_EQ(gct.oldest(0).startSeq, 5u);
    EXPECT_EQ(gct.retired(), 1u);
}

TEST(Gct, SharedCapacity)
{
    Gct gct(3);
    gct.allocate(0, 0, 5);
    gct.allocate(1, 0, 5);
    gct.allocate(0, 5, 5);
    EXPECT_FALSE(gct.hasFreeGroup());
    EXPECT_EQ(gct.occupancyOf(0), 2);
    EXPECT_EQ(gct.occupancyOf(1), 1);
}

TEST(Gct, SquashDropsYoungerGroups)
{
    Gct gct(8);
    gct.allocate(0, 0, 5);
    gct.allocate(0, 5, 5);
    gct.allocate(0, 10, 5);
    gct.squash(0, 7); // keep seqs 0..7
    EXPECT_EQ(gct.occupancyOf(0), 2);
    EXPECT_EQ(gct.groupsOf(0).back().startSeq, 5u);
    EXPECT_EQ(gct.groupsOf(0).back().count, 3); // truncated at seq 7
}

TEST(Gct, SquashFromExactBoundary)
{
    Gct gct(8);
    gct.allocate(0, 0, 5);
    gct.allocate(0, 5, 5);
    gct.squashFrom(0, 5); // drop the whole second group
    EXPECT_EQ(gct.occupancyOf(0), 1);
    EXPECT_EQ(gct.groupsOf(0).back().count, 5);
}

TEST(Gct, SquashFromZeroClearsThread)
{
    Gct gct(8);
    gct.allocate(0, 0, 4);
    gct.allocate(0, 4, 4);
    gct.squashFrom(0, 0);
    EXPECT_TRUE(gct.empty(0));
}

TEST(Gct, SquashLeavesOtherThreadAlone)
{
    Gct gct(8);
    gct.allocate(0, 0, 5);
    gct.allocate(1, 0, 5);
    gct.squashFrom(0, 0);
    EXPECT_TRUE(gct.empty(0));
    EXPECT_EQ(gct.occupancyOf(1), 1);
}

TEST(Gct, ClearThread)
{
    Gct gct(8);
    gct.allocate(0, 0, 5);
    gct.allocate(0, 5, 5);
    gct.clearThread(0);
    EXPECT_TRUE(gct.empty(0));
    EXPECT_TRUE(gct.hasFreeGroup());
}

TEST(Gct, UnfinishedCountsDownAsInstructionsFinish)
{
    Gct gct(4);
    const std::uint32_t a = gct.allocate(0, 0, 3);
    const std::uint32_t b = gct.allocate(0, 3, 2);
    EXPECT_EQ(gct.groupsOf(0)[0].unfinished, 3);
    EXPECT_EQ(gct.groupsOf(0)[1].unfinished, 2);
    gct.finishOne(0, a, 1);
    gct.finishOne(0, b, 4);
    EXPECT_EQ(gct.groupsOf(0)[0].unfinished, 2);
    EXPECT_EQ(gct.groupsOf(0)[1].unfinished, 1);
    // A handle that names another group (or no slot) is caught by the
    // seq-range check and resolved by search.
    gct.finishOne(0, a, 3);
    gct.finishOne(0, ~0u, 0);
    EXPECT_EQ(gct.groupsOf(0)[0].unfinished, 1);
    EXPECT_EQ(gct.groupsOf(0)[1].unfinished, 0);
    // Handles survive the retirement of older groups.
    gct.popOldest(0);
    const std::uint32_t c = gct.allocate(0, 5, 1);
    gct.finishOne(0, c, 5);
    EXPECT_EQ(gct.oldest(0).unfinished, 0);
    EXPECT_EQ(gct.groupsOf(0).back().unfinished, 0);
}

TEST(Gct, SquashLeavesTheRecountToTheCaller)
{
    Gct gct(4);
    gct.allocate(0, 0, 5);
    gct.squash(0, 2); // keep seqs 0..2
    EXPECT_EQ(gct.oldest(0).count, 3);
    EXPECT_EQ(gct.oldest(0).unfinished, 5);
    gct.setUnfinished(0, 0, 1);
    EXPECT_EQ(gct.oldest(0).unfinished, 1);
}

TEST(GctDeath, FinishingOutsideEveryGroupIsPanic)
{
    Gct gct(4);
    const std::uint32_t a = gct.allocate(0, 0, 2);
    EXPECT_DEATH(gct.finishOne(0, a, 2), "in no group");
    gct.finishOne(0, a, 0);
    gct.finishOne(0, a, 1);
    EXPECT_DEATH(gct.finishOne(0, a, 1), "already finished");
}

TEST(GctDeath, OverflowIsPanic)
{
    Gct gct(1);
    gct.allocate(0, 0, 5);
    EXPECT_DEATH(gct.allocate(0, 5, 5), "no free group");
}

TEST(GctDeath, NonContiguousIsPanic)
{
    Gct gct(4);
    gct.allocate(0, 0, 5);
    EXPECT_DEATH(gct.allocate(0, 7, 5), "not contiguous");
}

TEST(GctDeath, OldestOnEmptyIsPanic)
{
    Gct gct(4);
    EXPECT_DEATH(gct.oldest(0), "empty");
}

} // namespace
} // namespace p5
