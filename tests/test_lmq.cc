/**
 * @file
 * Unit tests for the load-miss queue (busy-window MSHR model), plus a
 * randomized differential test of its event-driven occupancy against a
 * brute-force scan of the windows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "ckpt/ckpt_io.hh"
#include "common/rng.hh"
#include "mem/lmq.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

TEST(Lmq, ReserveWithinCapacityIsImmediate)
{
    Lmq q(2);
    EXPECT_EQ(q.reserve(0, 0, 0, 100), 0u);
    EXPECT_EQ(q.reserve(0, 0, 0, 100), 0u);
    EXPECT_EQ(q.busyAt(0), 2);
    EXPECT_EQ(q.queuedMisses(), 0u);
}

TEST(Lmq, OverflowQueuesBehindEarliestRelease)
{
    Lmq q(2);
    q.reserve(0, 0, 0, 50);
    q.reserve(0, 0, 0, 100);
    // Third miss must wait until the first entry frees at 50.
    EXPECT_EQ(q.reserve(0, 0, 0, 80), 50u);
    EXPECT_EQ(q.queuedMisses(), 1u);
    EXPECT_EQ(q.queuedCycles(), 50u);
}

TEST(Lmq, QueuedWindowKeepsDuration)
{
    Lmq q(1);
    q.reserve(0, 0, 0, 30);
    Cycle start = q.reserve(0, 0, 10, 40); // 30-cycle window
    EXPECT_EQ(start, 30u);
    // Its release must be 60: a third 1-cycle window queues to 60.
    EXPECT_EQ(q.reserve(0, 0, 35, 36), 60u);
}

TEST(Lmq, EntriesExpire)
{
    Lmq q(1);
    q.reserve(0, 0, 0, 10);
    q.advanceTo(5);
    EXPECT_EQ(q.busyAt(5), 1);
    q.advanceTo(10);
    EXPECT_EQ(q.busyAt(10), 0);
    EXPECT_EQ(q.reserve(0, 10, 10, 20), 10u);
}

TEST(Lmq, FutureWindowsDoNotBlockPresent)
{
    Lmq q(2);
    // Two walks pending far in the future...
    q.reserve(0, 0, 1000, 1100);
    q.reserve(0, 0, 2000, 2100);
    // ...must not delay a present miss (their windows don't overlap).
    EXPECT_EQ(q.reserve(1, 0, 0, 100), 0u);
}

TEST(Lmq, PerThreadOccupancy)
{
    Lmq q(4);
    q.reserve(0, 0, 0, 100);
    q.reserve(0, 0, 0, 100);
    q.reserve(1, 0, 0, 100);
    EXPECT_EQ(q.busyOfAt(0, 0), 2);
    EXPECT_EQ(q.busyOfAt(1, 0), 1);
    EXPECT_EQ(q.busyAt(0), 3);
}

TEST(Lmq, FutureStartNotCountedYet)
{
    Lmq q(4);
    q.reserve(0, 0, 50, 100);
    q.advanceTo(10);
    EXPECT_EQ(q.busyOfAt(0, 10), 0);
    EXPECT_EQ(q.nextEventCycle(10), 50u);
    q.advanceTo(50);
    EXPECT_EQ(q.busyOfAt(0, 50), 1);
    EXPECT_EQ(q.nextEventCycle(50), 100u);
}

TEST(Lmq, ReleaseThread)
{
    Lmq q(2);
    q.reserve(0, 0, 0, 100);
    q.reserve(1, 0, 0, 100);
    q.releaseThread(0);
    EXPECT_EQ(q.busyOfAt(0, 0), 0);
    EXPECT_EQ(q.busyOfAt(1, 0), 1);
}

TEST(Lmq, UpdateLastRelease)
{
    Lmq q(1);
    q.reserve(0, 0, 0, 300); // pessimistic estimate
    q.updateLastRelease(20); // actual miss was short
    EXPECT_EQ(q.nextEventCycle(0), 20u);
    EXPECT_EQ(q.reserve(0, 0, 5, 25), 20u); // queues only to 20
}

TEST(Lmq, Reset)
{
    Lmq q(1);
    q.reserve(0, 0, 0, 1000);
    q.reset();
    EXPECT_EQ(q.busyAt(0), 0);
    EXPECT_EQ(q.reserve(0, 0, 0, 10), 0u);
}

TEST(Lmq, AllocationCounting)
{
    Lmq q(8);
    for (int i = 0; i < 5; ++i)
        q.reserve(0, 0, 0, 10);
    EXPECT_EQ(q.allocations(), 5u);
}

TEST(Lmq, AJumpCrossesWindowsThatStartAndReleaseInside)
{
    Lmq q(4);
    q.reserve(0, 0, 10, 20);
    q.reserve(1, 0, 15, 40);
    q.reserve(1, 0, 0, 12);
    q.advanceTo(30);
    EXPECT_EQ(q.busyOfAt(0, 30), 0);
    EXPECT_EQ(q.busyOfAt(1, 30), 1);
    EXPECT_EQ(q.nextEventCycle(30), 40u);
    q.advanceTo(40);
    EXPECT_EQ(q.busyAt(40), 0);
    EXPECT_EQ(q.nextEventCycle(40), never_cycle);
    EXPECT_TRUE(q.edges().empty());
}

// Stored windows are not bounded by the entry count: 80 misses on an
// 8-entry queue stack into ten back-to-back rounds, past the store's
// inline capacity, and every one is still accounted.
TEST(Lmq, QueuedWindowsOutnumberTheEntries)
{
    Lmq q(8);
    for (int k = 0; k < 80; ++k)
        EXPECT_EQ(q.reserve(k % 2, 0, 0, 100),
                  static_cast<Cycle>(k / 8) * 100);
    EXPECT_EQ(q.edges().size(), 80u);
    for (Cycle round = 0; round < 10; ++round) {
        const Cycle at = round * 100 + 50;
        q.advanceTo(at);
        EXPECT_EQ(q.busyAt(at), 8);
        EXPECT_EQ(q.busyOfAt(0, at), 4);
        EXPECT_EQ(q.nextEventCycle(at), at + 50);
    }
    q.advanceTo(1000);
    EXPECT_EQ(q.busyAt(1000), 0);
    EXPECT_TRUE(q.edges().empty());
}

TEST(LmqDeath, ZeroCapacityIsFatal)
{
    EXPECT_FATAL({ Lmq q(0); }, "at least one entry");
}

TEST(LmqDeath, QueriesOffTheSyncedCycleArePanics)
{
    Lmq q(2);
    q.reserve(0, 0, 0, 100);
    EXPECT_DEATH(q.busyAt(1), "synced to cycle 0");
    EXPECT_DEATH(q.busyOfAt(0, 5), "synced to cycle 0");
    EXPECT_DEATH(q.nextEventCycle(7), "synced to cycle 0");
    q.advanceTo(10);
    EXPECT_DEATH(q.advanceTo(9), "backwards");
    EXPECT_DEATH(q.updateLastRelease(50), "no reservation");
}

TEST(LmqDeath, RestoreRoundTripsAndRejectsAReleasedWindow)
{
    // Saved at cycle 60: [50, 100) is busy, [80, 120) pending. Restored
    // at 60 the queue is synced there and saves the same bytes; restored
    // at 100, the first window has already released.
    Lmq q(2);
    q.reserve(0, 50, 50, 100);
    q.reserve(1, 50, 80, 120);
    q.advanceTo(60);
    CkptWriter w;
    Lmq::ckpt(std::as_const(q), w, 60);

    Lmq back(2);
    CkptReader r(w.data());
    Lmq::ckpt(back, r, 60);
    EXPECT_EQ(back.busyOfAt(0, 60), 1);
    EXPECT_EQ(back.busyOfAt(1, 60), 0);
    EXPECT_EQ(back.nextEventCycle(60), 80u);
    CkptWriter again;
    Lmq::ckpt(std::as_const(back), again, 60);
    EXPECT_TRUE(again.data() == w.data());

    EXPECT_FATAL(
        {
            Lmq late(2);
            CkptReader lr(w.data());
            Lmq::ckpt(late, lr, 100);
        },
        "LMQ window is malformed");
}

// Property: with capacity N and identical W-cycle windows arriving
// together, the k-th window starts at floor(k/N)*W.
class LmqThroughputTest : public ::testing::TestWithParam<int>
{
};

TEST_P(LmqThroughputTest, SteadyThroughputMatchesCapacity)
{
    const int cap = GetParam();
    Lmq q(cap);
    const Cycle w = 40;
    for (int k = 0; k < cap * 4; ++k) {
        Cycle start = q.reserve(0, 0, 0, w);
        EXPECT_EQ(start, static_cast<Cycle>(k / cap) * w);
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, LmqThroughputTest,
                         ::testing::Values(1, 2, 4, 8, 16));

// --- differential: event-driven occupancy vs a brute-force scan ---------

/** The queue as a plain list of windows, every query a full scan. */
class ScanLmq
{
  public:
    explicit ScanLmq(int entries) : capacity_(entries) {}

    Cycle
    reserve(ThreadId tid, Cycle now, Cycle start, Cycle release)
    {
        std::erase_if(windows_, [now](const Lmq::Window &w) {
            return w.releaseCycle <= now;
        });
        for (;;) {
            int n = 0;
            Cycle next = never_cycle;
            for (const Lmq::Window &w : windows_)
                if (w.startCycle < release && w.releaseCycle > start) {
                    ++n;
                    next = std::min(next, w.releaseCycle);
                }
            if (n < capacity_)
                break;
            release += next - start;
            start = next;
        }
        windows_.push_back({tid, start, release});
        return start;
    }

    void
    updateLastRelease(Cycle release)
    {
        windows_.back().releaseCycle = release;
    }

    void
    releaseThread(ThreadId tid)
    {
        std::erase_if(windows_, [tid](const Lmq::Window &w) {
            return w.tid == tid;
        });
    }

    int
    busyOfAt(ThreadId tid, Cycle now) const
    {
        int n = 0;
        for (const Lmq::Window &w : windows_)
            n += w.tid == tid && w.startCycle <= now && w.releaseCycle > now;
        return n;
    }

    Cycle
    nextEventCycle(Cycle now) const
    {
        Cycle next = never_cycle;
        for (const Lmq::Window &w : windows_) {
            if (w.startCycle > now)
                next = std::min(next, w.startCycle);
            else if (w.releaseCycle > now)
                next = std::min(next, w.releaseCycle);
        }
        return next;
    }

  private:
    int capacity_;
    std::vector<Lmq::Window> windows_;
};

void
expectSameOccupancy(const Lmq &q, const ScanLmq &ref, Cycle now)
{
    EXPECT_EQ(q.busyOfAt(0, now), ref.busyOfAt(0, now)) << "at " << now;
    EXPECT_EQ(q.busyOfAt(1, now), ref.busyOfAt(1, now)) << "at " << now;
    EXPECT_EQ(q.busyAt(now), ref.busyOfAt(0, now) + ref.busyOfAt(1, now));
    EXPECT_EQ(q.nextEventCycle(now), ref.nextEventCycle(now))
        << "at " << now;
    // The edge list itself: every stored window live or pending, filed
    // under its next edge, earliest edge first.
    const auto &edges = q.edges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const Lmq::Window &w = edges[i].window;
        EXPECT_GT(w.releaseCycle, now);
        EXPECT_EQ(edges[i].cycle,
                  w.startCycle > now ? w.startCycle : w.releaseCycle);
        if (i > 0) {
            EXPECT_LE(edges[i - 1].cycle, edges[i].cycle);
        }
    }
}

class LmqDifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(LmqDifferentialTest, MatchesABruteForceScan)
{
    const int cap = GetParam();
    Rng rng(0x1a9b0000u + static_cast<std::uint64_t>(cap));
    Lmq q(cap);
    ScanLmq ref(cap);
    Cycle now = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 45) {
            // A miss, maybe after a walk, with a pessimistic estimate
            // corrected most of the time (as the LSU does).
            const auto tid = static_cast<ThreadId>(rng.below(2));
            const Cycle start = now + (rng.chance(0.3) ? rng.below(120) : 0);
            const Cycle release = start + 1 + rng.below(300);
            const Cycle got = q.reserve(tid, now, start, release);
            ASSERT_EQ(got, ref.reserve(tid, now, start, release))
                << "step " << step;
            if (rng.chance(0.8)) {
                const Cycle actual = got + 1 + rng.below(400);
                q.updateLastRelease(actual);
                ref.updateLastRelease(actual);
            }
        } else if (op < 85) {
            now += 1;
        } else if (op < 97) {
            // A skipped gap, possibly across many edges.
            now += 1 + rng.below(rng.chance(0.5) ? 50 : 1000);
        } else {
            const auto tid = static_cast<ThreadId>(rng.below(2));
            q.releaseThread(tid);
            ref.releaseThread(tid);
        }
        q.advanceTo(now);
        expectSameOccupancy(q, ref, now);
        if (HasFailure())
            FAIL() << "diverged at step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, LmqDifferentialTest,
                         ::testing::Values(1, 2, 3, 8));

} // namespace
} // namespace p5
