/**
 * @file
 * Unit tests for the dynamic hardware resource balancer.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/balancer.hh"

namespace p5 {
namespace {

struct BalancerFixture
{
    explicit BalancerFixture(BalancerParams bp = BalancerParams{})
        : gct(20), lmq(8), balancer(bp, 20, 8)
    {
        params.mem.tlb.walkLatency = 100;
        hierarchy = std::make_unique<CacheHierarchy>(params.mem);
        lsu = std::make_unique<Lsu>(params, hierarchy.get(), &lmq);
        allocator = std::make_unique<DecodeSlotAllocator>(5, 2);
        allocator->setPriorities(4, 4);
        balancer.setPriorityView(allocator.get());
        lsu->setPriorityView(allocator.get());
    }

    /** One cycle of the core's use: decide at @p now, then charge it. */
    BalancerDecision
    step(bool both_running, Cycle now)
    {
        const BalancerDecision d =
            balancer.probe(gct, lmq, *lsu, both_running, now);
        balancer.charge(d, 1);
        return d;
    }

    CoreParams params;
    Gct gct;
    Lmq lmq;
    std::unique_ptr<CacheHierarchy> hierarchy;
    std::unique_ptr<Lsu> lsu;
    std::unique_ptr<DecodeSlotAllocator> allocator;
    Balancer balancer;
};

TEST(Balancer, QuietCoreNoBlocks)
{
    BalancerFixture f;
    BalancerDecision d = f.step(true, 0);
    EXPECT_FALSE(d.block[0]);
    EXPECT_FALSE(d.block[1]);
}

TEST(Balancer, GctHogIsBlocked)
{
    BalancerFixture f;
    // Thread 0 holds 12 of 20 groups: > 0.55 * 20 = 11.
    for (int g = 0; g < 12; ++g)
        f.gct.allocate(0, static_cast<SeqNum>(g) * 5, 5);
    BalancerDecision d = f.step(true, 0);
    EXPECT_TRUE(d.block[0]);
    EXPECT_FALSE(d.block[1]);
    EXPECT_FALSE(d.flush[0]); // default action is Stall
    EXPECT_EQ(f.balancer.gctBlocksOf(0), 1u);
}

TEST(Balancer, FlushActionSetsFlush)
{
    BalancerParams bp;
    bp.action = BalanceAction::Flush;
    BalancerFixture f(bp);
    for (int g = 0; g < 12; ++g)
        f.gct.allocate(0, static_cast<SeqNum>(g) * 5, 5);
    BalancerDecision d = f.step(true, 0);
    EXPECT_TRUE(d.flush[0]);
    EXPECT_EQ(f.balancer.flushesOf(0), 1u);
}

TEST(Balancer, NoHoggingWithoutSibling)
{
    BalancerFixture f;
    for (int g = 0; g < 15; ++g)
        f.gct.allocate(0, static_cast<SeqNum>(g) * 5, 5);
    BalancerDecision d = f.step(false, 0);
    EXPECT_FALSE(d.block[0]);
}

TEST(Balancer, LmqHogIsBlocked)
{
    BalancerFixture f;
    for (int i = 0; i < 6; ++i)
        f.lmq.reserve(1, 0, 0, 1000);
    BalancerDecision d = f.step(true, 0);
    EXPECT_TRUE(d.block[1]);
    EXPECT_EQ(f.balancer.lmqBlocksOf(1), 1u);
}

TEST(Balancer, TlbWalkBlocksDecode)
{
    BalancerFixture f;
    f.lsu->issueLoad(0, 0x1000, 0); // triggers a 100-cycle walk
    f.lmq.advanceTo(50);
    BalancerDecision d = f.step(true, 50);
    EXPECT_TRUE(d.block[0]);
    f.lmq.advanceTo(150);
    d = f.step(true, 150);
    EXPECT_FALSE(d.block[0]);
}

TEST(Balancer, DisabledDoesNothing)
{
    BalancerParams bp;
    bp.enabled = false;
    BalancerFixture f(bp);
    for (int g = 0; g < 18; ++g)
        f.gct.allocate(0, static_cast<SeqNum>(g) * 5, 5);
    BalancerDecision d = f.step(true, 0);
    EXPECT_FALSE(d.block[0]);
}

TEST(Balancer, GctThresholdScalesWithPriority)
{
    BalancerFixture f;
    EXPECT_DOUBLE_EQ(f.balancer.gctThresholdFor(0, f.allocator.get()), 0.55);
    f.allocator->setPriorities(6, 2); // thread 0 share 31/32
    EXPECT_DOUBLE_EQ(f.balancer.gctThresholdFor(0, f.allocator.get()), 0.85); // clamped
    EXPECT_DOUBLE_EQ(f.balancer.gctThresholdFor(1, f.allocator.get()), 0.20); // clamped
    f.allocator->setPriorities(5, 4); // shares 3/4 and 1/4
    EXPECT_NEAR(f.balancer.gctThresholdFor(0, f.allocator.get()), 0.55 * 1.5, 1e-9);
    EXPECT_NEAR(f.balancer.gctThresholdFor(1, f.allocator.get()), 0.275, 1e-9);
}

TEST(Balancer, GctThresholdFixedWhenDisabled)
{
    BalancerParams bp;
    bp.priorityAwareGct = false;
    BalancerFixture f(bp);
    f.allocator->setPriorities(6, 1);
    EXPECT_DOUBLE_EQ(f.balancer.gctThresholdFor(1, f.allocator.get()), 0.55);
}

TEST(Balancer, LmqThresholdScalesWithPriority)
{
    BalancerFixture f;
    EXPECT_EQ(f.balancer.lmqThresholdFor(0, f.allocator.get()), 6);
    f.allocator->setPriorities(6, 2);
    EXPECT_EQ(f.balancer.lmqThresholdFor(0, f.allocator.get()), 7); // clamped to cap-1
    EXPECT_EQ(f.balancer.lmqThresholdFor(1, f.allocator.get()), 1);
}

TEST(Balancer, MinorityGctCapIsTighter)
{
    BalancerFixture f;
    f.allocator->setPriorities(2, 6); // thread 0 minority: cap 0.2*20=4
    for (int g = 0; g < 5; ++g)
        f.gct.allocate(0, static_cast<SeqNum>(g) * 5, 5);
    BalancerDecision d = f.step(true, 0);
    EXPECT_TRUE(d.block[0]);
}

// --- the per-pair limit table vs the double-precision formula ----------

/** The thresholds as probe() once computed them, per cycle. */
double
referenceGctThreshold(const BalancerParams &bp,
                      const DecodeSlotAllocator *slots, ThreadId t)
{
    if (!bp.priorityAwareGct || !slots || slots->mode() != SlotMode::Dual)
        return bp.gctShareThreshold;
    return std::clamp(bp.gctShareThreshold * 2.0 * slots->shareOf(t),
                      bp.minGctShareThreshold, bp.maxGctShareThreshold);
}

int
referenceLmqThreshold(const BalancerParams &bp,
                      const DecodeSlotAllocator *slots, ThreadId t,
                      int capacity)
{
    if (!bp.priorityAwareLmq || !slots || slots->mode() != SlotMode::Dual)
        return bp.lmqThreshold;
    return std::clamp(
        static_cast<int>(bp.lmqThreshold * 2.0 * slots->shareOf(t)), 1,
        std::max(1, capacity - 1));
}

/** Every GCT holding and LMQ count of each thread under the current
 *  view: the decision must be the double formula's. */
void
expectReferenceDecisions(const BalancerParams &bp, BalancerFixture &f,
                         const DecodeSlotAllocator *view)
{
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        const double gct_limit =
            referenceGctThreshold(bp, view, t) * f.gct.capacity();
        for (int held = 0; held <= f.gct.capacity(); ++held) {
            Gct gct(f.gct.capacity());
            for (int g = 0; g < held; ++g)
                gct.allocate(t, static_cast<SeqNum>(g) * 5, 5);
            const BalancerDecision d =
                f.balancer.probe(gct, f.lmq, *f.lsu, true, 0);
            const bool hog = held > bp.minGctGroups &&
                             static_cast<double>(held) > gct_limit;
            ASSERT_EQ(d.block[ti], hog) << "thread " << t << " holding "
                                        << held;
            ASSERT_EQ(d.flush[ti],
                      hog && bp.action == BalanceAction::Flush);
        }
        const int lmq_limit =
            referenceLmqThreshold(bp, view, t, f.lmq.capacity());
        Lmq lmq(f.lmq.capacity());
        for (int busy = 0; busy <= lmq.capacity(); ++busy) {
            const BalancerDecision d =
                f.balancer.probe(f.gct, lmq, *f.lsu, true, 0);
            ASSERT_EQ(d.block[ti], busy >= lmq_limit)
                << "thread " << t << " with " << busy << " busy";
            ASSERT_EQ(d.reason[ti],
                      busy >= lmq_limit ? BalanceBlock::Lmq
                                        : BalanceBlock::None);
            lmq.reserve(t, 0, 0, 1000);
        }
    }
}

TEST(Balancer, LimitTableMatchesTheDoubleFormulaOnAll64Pairs)
{
    // Thresholds 0.55 (the default) and 0.5, whose products with the
    // 20-group capacity are integral (10, and 15/5 at shares 3/4, 1/4):
    // the boundary where "held > x" and "held > floor(x)" could part.
    for (const double threshold : {0.55, 0.5}) {
        for (const int min_groups : {0, 12}) {
            for (const bool aware_gct : {true, false}) {
                for (const bool aware_lmq : {true, false}) {
                    for (const BalanceAction action :
                         {BalanceAction::Stall, BalanceAction::Flush}) {
                        BalancerParams bp;
                        bp.gctShareThreshold = threshold;
                        bp.minGctGroups = min_groups;
                        bp.priorityAwareGct = aware_gct;
                        bp.priorityAwareLmq = aware_lmq;
                        bp.action = action;
                        SCOPED_TRACE(testing::Message()
                                     << "threshold " << threshold
                                     << " min " << min_groups << " gct "
                                     << aware_gct << " lmq " << aware_lmq
                                     << " flush "
                                     << (action == BalanceAction::Flush));
                        BalancerFixture f(bp);
                        for (int p = 0; p <= max_priority; ++p) {
                            for (int s = 0; s <= max_priority; ++s) {
                                SCOPED_TRACE(p * 10 + s);
                                f.allocator->setPriorities(p, s);
                                expectReferenceDecisions(
                                    bp, f, f.allocator.get());
                            }
                        }
                        // No priority view: the unscaled thresholds.
                        f.balancer.setPriorityView(nullptr);
                        expectReferenceDecisions(bp, f, nullptr);
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace p5
