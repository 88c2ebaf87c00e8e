/**
 * @file
 * Tests for the decode-slot allocator: the paper's R-formula, the
 * R-1:1 split, special modes, and the minority-width calibration; and
 * for the decode arbiter that charges each slot to its owner.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/decode_arbiter.hh"
#include "prio/slot_allocator.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

TEST(SlotFormula, MatchesPaperExamples)
{
    // Paper Sec. 3.2: PrioP 6, PrioS 2 -> R = 32, 31:1.
    EXPECT_EQ(DecodeSlotAllocator::computeR(6, 2), 32);
    EXPECT_EQ(DecodeSlotAllocator::computeR(4, 4), 2);
    EXPECT_EQ(DecodeSlotAllocator::computeR(5, 4), 4);
    EXPECT_EQ(DecodeSlotAllocator::computeR(6, 1), 64);
    EXPECT_EQ(DecodeSlotAllocator::computeR(1, 6), 64);
}

/** Property: R = 2^(|dP-dS|+1) for every pair. */
class RFormulaTest : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(RFormulaTest, Formula)
{
    auto [p, s] = GetParam();
    int diff = p > s ? p - s : s - p;
    EXPECT_EQ(DecodeSlotAllocator::computeR(p, s), 1 << (diff + 1));
}

INSTANTIATE_TEST_SUITE_P(AllPairs, RFormulaTest,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Range(0, 8)));

TEST(SlotAllocator, EqualPrioritiesAlternate)
{
    DecodeSlotAllocator a(5);
    a.setPriorities(4, 4);
    EXPECT_EQ(a.mode(), SlotMode::Dual);
    EXPECT_EQ(a.slotWindow(), 2);
    for (Cycle c = 0; c < 10; ++c) {
        SlotGrant g = a.grantAt(c);
        EXPECT_EQ(g.owner, static_cast<ThreadId>(c % 2));
        EXPECT_EQ(g.maxWidth, 5);
    }
}

TEST(SlotAllocator, SplitIsRMinus1To1)
{
    DecodeSlotAllocator a(5);
    a.setPriorities(6, 2); // R = 32
    int p_slots = 0;
    int s_slots = 0;
    for (Cycle c = 0; c < 32; ++c) {
        SlotGrant g = a.grantAt(c);
        if (g.owner == 0)
            ++p_slots;
        else if (g.owner == 1)
            ++s_slots;
    }
    EXPECT_EQ(p_slots, 31);
    EXPECT_EQ(s_slots, 1);
}

TEST(SlotAllocator, MinorityWidthAppliesToLowerPriority)
{
    DecodeSlotAllocator a(5, 2);
    a.setPriorities(6, 2);
    for (Cycle c = 0; c < 64; ++c) {
        SlotGrant g = a.grantAt(c);
        if (g.owner == 0)
            EXPECT_EQ(g.maxWidth, 5);
        else
            EXPECT_EQ(g.maxWidth, 2);
    }
    // Mirror: thread 0 is the minority.
    a.setPriorities(2, 6);
    for (Cycle c = 0; c < 64; ++c) {
        SlotGrant g = a.grantAt(c);
        if (g.owner == 0)
            EXPECT_EQ(g.maxWidth, 2);
        else
            EXPECT_EQ(g.maxWidth, 5);
    }
}

TEST(SlotAllocator, Priority7IsSingleThreadMode)
{
    DecodeSlotAllocator a(5);
    a.setPriorities(7, 4);
    EXPECT_EQ(a.mode(), SlotMode::SingleP);
    EXPECT_FALSE(a.threadActive(1));
    for (Cycle c = 0; c < 8; ++c)
        EXPECT_EQ(a.grantAt(c).owner, 0);
}

TEST(SlotAllocator, Priority0ShutsThreadOff)
{
    DecodeSlotAllocator a(5);
    a.setPriorities(4, 0);
    EXPECT_EQ(a.mode(), SlotMode::SingleP);
    a.setPriorities(0, 4);
    EXPECT_EQ(a.mode(), SlotMode::SingleS);
    for (Cycle c = 0; c < 8; ++c)
        EXPECT_EQ(a.grantAt(c).owner, 1);
    a.setPriorities(0, 0);
    EXPECT_EQ(a.mode(), SlotMode::AllOff);
    EXPECT_EQ(a.grantAt(3).owner, -1);
}

TEST(SlotAllocator, BothAt1IsLowPowerMode)
{
    // Paper Sec. 3.2: (1,1) decodes one instruction every 32 cycles.
    DecodeSlotAllocator a(5);
    a.setPriorities(1, 1);
    EXPECT_EQ(a.mode(), SlotMode::LowPower);
    int grants = 0;
    int width_sum = 0;
    for (Cycle c = 0; c < 320; ++c) {
        SlotGrant g = a.grantAt(c);
        if (g.owner >= 0) {
            ++grants;
            width_sum += g.maxWidth;
        }
    }
    EXPECT_EQ(grants, 10);
    EXPECT_EQ(width_sum, 10); // one *instruction*, not one group
}

TEST(SlotAllocator, SingleAt1AgainstHigherIsNormalDual)
{
    DecodeSlotAllocator a(5);
    a.setPriorities(6, 1);
    EXPECT_EQ(a.mode(), SlotMode::Dual);
    EXPECT_EQ(a.slotWindow(), 64);
}

/** Property: observed share matches primaryShare() for all Dual pairs. */
class ShareTest : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ShareTest, GrantCountsMatchShare)
{
    auto [p, s] = GetParam();
    DecodeSlotAllocator a(5);
    a.setPriorities(p, s);
    if (a.mode() != SlotMode::Dual)
        GTEST_SKIP() << "non-dual pair";
    const int window = a.slotWindow();
    int p_slots = 0;
    for (Cycle c = 0; c < static_cast<Cycle>(window); ++c)
        if (a.grantAt(c).owner == 0)
            ++p_slots;
    EXPECT_NEAR(static_cast<double>(p_slots) / window, a.primaryShare(),
                1e-9);
    EXPECT_NEAR(a.shareOf(0) + a.shareOf(1), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, ShareTest,
                         ::testing::Combine(::testing::Range(1, 7),
                                            ::testing::Range(1, 7)));

TEST(SlotAllocator, SetPriorityByThread)
{
    DecodeSlotAllocator a(5);
    a.setPriorities(4, 4);
    a.setPriority(1, 2);
    EXPECT_EQ(a.priorityOf(0), 4);
    EXPECT_EQ(a.priorityOf(1), 2);
    EXPECT_EQ(a.slotWindow(), 8);
}

TEST(SlotAllocatorDeath, InvalidPriorityIsFatal)
{
    DecodeSlotAllocator a(5);
    EXPECT_FATAL(a.setPriorities(9, 4), "invalid priority");
}

/**
 * Brute-force reference for one pair, written from the paper's rules
 * directly (no tables, no periodicity): the grant of cycle c.
 */
SlotGrant
referenceGrant(int p, int s, Cycle c, int width, int minority)
{
    SlotGrant g;
    if (p == 0 && s == 0)
        return g;
    if (p == 7 || s == 0)
        return {0, width};
    if (s == 7 || p == 0)
        return {1, width};
    if (p == 1 && s == 1) {
        if (c % 32 == 0)
            return {static_cast<ThreadId>((c / 32) % 2), 1};
        return g;
    }
    if (p == s)
        return {static_cast<ThreadId>(c % 2), width};
    const Cycle r = Cycle{1} << ((p > s ? p - s : s - p) + 1);
    const ThreadId high = p > s ? 0 : 1;
    if (c % r != r - 1)
        return {high, width};
    return {static_cast<ThreadId>(1 - high), minority};
}

/** First cycle after @p after granted to @p tid (-1: anyone), by walk. */
Cycle
referenceNext(int p, int s, Cycle after, ThreadId tid)
{
    for (Cycle i = 1; i <= 64; ++i) {
        if (after > never_cycle - i || after + i == never_cycle)
            return never_cycle;
        const ThreadId owner =
            referenceGrant(p, s, after + i, 5, 2).owner;
        if (tid < 0 ? owner >= 0 : owner == tid)
            return after + i;
    }
    return never_cycle;
}

TEST(SlotAllocator, EveryQueryMatchesABruteForceReferenceOnAll64Pairs)
{
    std::mt19937_64 rng(77);
    // Sample points: low cycles, random ones, and the top of the range
    // where next-grant searches saturate at never_cycle.
    const auto sampleCycle = [&rng](int i) -> Cycle {
        switch (i % 3) {
          case 0:
            return rng() % 1000;
          case 1:
            return rng();
          default:
            return never_cycle - rng() % 200;
        }
    };
    for (int p = 0; p < 8; ++p) {
        for (int s = 0; s < 8; ++s) {
            DecodeSlotAllocator a(5, 2);
            a.setPriorities(p, s);
            SCOPED_TRACE(::testing::Message() << "pair " << p << "," << s);

            std::uint64_t period_owned[2] = {0, 0};
            for (Cycle c = 0; c < 64; ++c) {
                const SlotGrant want = referenceGrant(p, s, c, 5, 2);
                if (want.owner >= 0)
                    ++period_owned[want.owner];
            }
            for (ThreadId t = 0; t < 2; ++t)
                EXPECT_EQ(a.threadActive(t), period_owned[t] > 0);
            EXPECT_FALSE(a.threadActive(2));
            EXPECT_FALSE(a.threadActive(-1));

            double share;
            if (p == 0 && s == 0)
                share = 0.0;
            else if (p == 7 || s == 0)
                share = 1.0;
            else if (s == 7 || p == 0)
                share = 0.0;
            else if (p == s)
                share = 0.5;
            else if (p > s)
                share = (DecodeSlotAllocator::computeR(p, s) - 1.0) /
                        DecodeSlotAllocator::computeR(p, s);
            else
                share = 1.0 / DecodeSlotAllocator::computeR(p, s);
            EXPECT_EQ(a.primaryShare(), share);
            EXPECT_EQ(a.shareOf(0), share);
            EXPECT_EQ(a.shareOf(1), 1.0 - share);

            for (int i = 0; i < 300; ++i) {
                const Cycle c = sampleCycle(i);
                const SlotGrant got = a.grantAt(c);
                const SlotGrant want = referenceGrant(p, s, c, 5, 2);
                ASSERT_EQ(got.owner, want.owner) << "cycle " << c;
                ASSERT_EQ(got.maxWidth, want.maxWidth) << "cycle " << c;
                for (ThreadId t = 0; t < 2; ++t)
                    ASSERT_EQ(a.nextGrantCycle(c, t),
                              referenceNext(p, s, c, t))
                        << "cycle " << c << " thread " << t;
                ASSERT_EQ(a.nextAnyGrantCycle(c),
                          referenceNext(p, s, c, -1))
                    << "cycle " << c;

                // A range of up to ~300 cycles starting at c, clipped
                // to never_cycle, counted slot by slot; and an empty or
                // reversed range counts nothing.
                const Cycle len = rng() % 300;
                const Cycle end =
                    c > never_cycle - len ? never_cycle : c + len;
                std::uint64_t want_owned[2] = {0, 0};
                for (Cycle x = c; x < end; ++x) {
                    const ThreadId owner =
                        referenceGrant(p, s, x, 5, 2).owner;
                    if (owner >= 0)
                        ++want_owned[owner];
                }
                const auto got_owned = a.ownedSlotsInRange(c, end);
                ASSERT_EQ(got_owned[0], want_owned[0])
                    << "[" << c << ", " << end << ")";
                ASSERT_EQ(got_owned[1], want_owned[1])
                    << "[" << c << ", " << end << ")";
                const auto none = a.ownedSlotsInRange(end, c);
                ASSERT_EQ(none[0] + none[1], 0u);
            }

            // Long ranges: whole periods plus the brute-forced ends.
            for (int i = 0; i < 50; ++i) {
                const Cycle begin = rng() % (never_cycle / 2);
                const Cycle periods = rng() % 1000000;
                const Cycle end = begin + periods * 64 + rng() % 64;
                std::uint64_t want_owned[2] = {period_owned[0] * periods,
                                               period_owned[1] * periods};
                for (Cycle x = begin + periods * 64; x < end; ++x) {
                    const ThreadId owner =
                        referenceGrant(p, s, x, 5, 2).owner;
                    if (owner >= 0)
                        ++want_owned[owner];
                }
                const auto got_owned = a.ownedSlotsInRange(begin, end);
                ASSERT_EQ(got_owned[0], want_owned[0]);
                ASSERT_EQ(got_owned[1], want_owned[1]);
            }
            // The whole cycle range: no overflow in the prefix counts.
            const Cycle last_period = never_cycle / 64 * 64;
            std::uint64_t want_all[2] = {period_owned[0] * (never_cycle / 64),
                                         period_owned[1] * (never_cycle / 64)};
            for (Cycle x = last_period; x < never_cycle; ++x) {
                const ThreadId owner = referenceGrant(p, s, x, 5, 2).owner;
                if (owner >= 0)
                    ++want_all[owner];
            }
            const auto all = a.ownedSlotsInRange(0, never_cycle);
            EXPECT_EQ(all[0], want_all[0]);
            EXPECT_EQ(all[1], want_all[1]);
        }
    }
}

/**
 * DecodeArbiter over every priority pair, every cycle of the grant
 * period, every usability combination and both slot policies:
 * wouldGrant() names exactly the thread decide() grants, and decide()
 * charges the slot owner one grant or one forfeit, plus at most one
 * reassignment to the sibling.
 */
TEST(DecodeArbiter, DecideIsWouldGrantPlusOneChargePerOwnedSlot)
{
    for (const bool work_conserving : {false, true}) {
        for (int p = 0; p < 8; ++p) {
            for (int s = 0; s < 8; ++s) {
                DecodeArbiter arb(5, 2, work_conserving);
                arb.allocator().setPriorities(p, s);
                SCOPED_TRACE(::testing::Message()
                             << "pair " << p << "," << s
                             << " work-conserving " << work_conserving);
                for (Cycle c = 0; c < DecodeSlotAllocator::grant_period;
                     ++c) {
                    const SlotGrant slot = referenceGrant(p, s, c, 5, 2);
                    for (int mask = 0; mask < 4; ++mask) {
                        const std::array<bool, num_hw_threads> can_use{
                            (mask & 1) != 0, (mask & 2) != 0};
                        std::uint64_t before[3][2];
                        for (ThreadId t = 0; t < 2; ++t) {
                            before[0][t] = arb.slotsGrantedTo(t);
                            before[1][t] = arb.slotsForfeitedBy(t);
                            before[2][t] = arb.slotsReassignedTo(t);
                        }

                        const ThreadId would = arb.wouldGrant(c, can_use);
                        const SlotGrant g = arb.decide(c, can_use);
                        ASSERT_EQ(g.owner, would)
                            << "cycle " << c << " usable " << mask;

                        // The reference: the owner decodes if it can,
                        // else a usable active sibling inherits the
                        // slot when slots are work-conserving.
                        ThreadId want = -1;
                        if (slot.owner >= 0) {
                            const ThreadId sib = 1 - slot.owner;
                            if (can_use[static_cast<size_t>(slot.owner)])
                                want = slot.owner;
                            else if (work_conserving &&
                                     can_use[static_cast<size_t>(sib)] &&
                                     arb.allocator().threadActive(sib))
                                want = sib;
                        }
                        ASSERT_EQ(would, want)
                            << "cycle " << c << " usable " << mask;
                        ASSERT_EQ(g.maxWidth, want < 0 ? 0 : slot.maxWidth)
                            << "cycle " << c << " usable " << mask;

                        std::uint64_t delta[3][2];
                        for (ThreadId t = 0; t < 2; ++t) {
                            delta[0][t] = arb.slotsGrantedTo(t) - before[0][t];
                            delta[1][t] =
                                arb.slotsForfeitedBy(t) - before[1][t];
                            delta[2][t] =
                                arb.slotsReassignedTo(t) - before[2][t];
                        }
                        for (ThreadId t = 0; t < 2; ++t) {
                            const bool owns = t == slot.owner;
                            ASSERT_EQ(delta[0][t], owns && want == t ? 1u : 0u)
                                << "cycle " << c << " usable " << mask;
                            ASSERT_EQ(delta[1][t], owns && want != t ? 1u : 0u)
                                << "cycle " << c << " usable " << mask;
                            ASSERT_EQ(delta[2][t],
                                      !owns && want == t ? 1u : 0u)
                                << "cycle " << c << " usable " << mask;
                        }
                        ASSERT_LE(delta[2][0] + delta[2][1], 1u);
                    }
                }
            }
        }
    }
}

TEST(SlotMode, Names)
{
    EXPECT_STREQ(slotModeName(SlotMode::Dual), "Dual");
    EXPECT_STREQ(slotModeName(SlotMode::LowPower), "LowPower");
}

} // namespace
} // namespace p5
