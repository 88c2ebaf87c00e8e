/**
 * @file
 * Unit tests for the ready-instruction queues.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "ckpt/ckpt_io.hh"
#include "core/issue_queue.hh"

namespace p5 {
namespace {

ReadyRef
ref(std::uint64_t stamp, ThreadId tid = 0, SeqNum seq = 0)
{
    ReadyRef r;
    r.stamp = stamp;
    r.tid = tid;
    r.seq = seq;
    r.epoch = 0;
    return r;
}

TEST(IssueQueue, OldestFirstAcrossPushOrder)
{
    IssueQueue q;
    q.push(FuClass::FX, ref(30));
    q.push(FuClass::FX, ref(10));
    q.push(FuClass::FX, ref(20));
    EXPECT_EQ(q.pop(FuClass::FX).stamp, 10u);
    EXPECT_EQ(q.pop(FuClass::FX).stamp, 20u);
    EXPECT_EQ(q.pop(FuClass::FX).stamp, 30u);
}

TEST(IssueQueue, ClassesAreIndependent)
{
    IssueQueue q;
    q.push(FuClass::FX, ref(1));
    q.push(FuClass::LS, ref(2));
    EXPECT_EQ(q.size(FuClass::FX), 1u);
    EXPECT_EQ(q.size(FuClass::LS), 1u);
    EXPECT_TRUE(q.empty(FuClass::FP));
    EXPECT_EQ(q.totalSize(), 2u);
}

TEST(IssueQueue, AgeOrderMergesThreads)
{
    IssueQueue q;
    q.push(FuClass::LS, ref(5, 1, 100));
    q.push(FuClass::LS, ref(3, 0, 200));
    ReadyRef first = q.pop(FuClass::LS);
    EXPECT_EQ(first.tid, 0);
    EXPECT_EQ(first.seq, 200u);
}

TEST(IssueQueue, TopDoesNotRemove)
{
    IssueQueue q;
    q.push(FuClass::BR, ref(7));
    EXPECT_EQ(q.top(FuClass::BR).stamp, 7u);
    EXPECT_EQ(q.size(FuClass::BR), 1u);
}

TEST(IssueQueue, RepushPreservesAgePriority)
{
    IssueQueue q;
    q.push(FuClass::LS, ref(1));
    q.push(FuClass::LS, ref(2));
    ReadyRef r = q.pop(FuClass::LS); // stamp 1, e.g. rejected load
    q.push(FuClass::LS, r);
    EXPECT_EQ(q.pop(FuClass::LS).stamp, 1u);
}

TEST(IssueQueue, Clear)
{
    IssueQueue q;
    q.push(FuClass::FX, ref(1));
    q.push(FuClass::FP, ref(2));
    q.clear();
    EXPECT_EQ(q.totalSize(), 0u);
}

/** Min-heap on the stamp: the reference the age-ordered arrays match. */
struct StampLater
{
    bool
    operator()(const ReadyRef &a, const ReadyRef &b) const
    {
        return a.stamp > b.stamp;
    }
};

using ReferenceQueue =
    std::priority_queue<ReadyRef, std::vector<ReadyRef>, StampLater>;

TEST(IssueQueue, MatchesAPriorityQueueUnderRandomTraffic)
{
    // Dispatch pushes (newest stamp), wakeup pushes (an older stamp not
    // queued), pops and re-pushes of popped entries, interleaved at
    // random on two classes; every pop must equal the reference's.
    std::mt19937_64 rng(1234);
    IssueQueue q;
    ReferenceQueue ref[2];
    std::set<std::uint64_t> live;
    std::vector<ReadyRef> popped;
    std::uint64_t next_stamp = 1000;
    std::uint64_t pops = 0;
    const FuClass classes[2] = {FuClass::FX, FuClass::LS};
    for (int step = 0; step < 200000; ++step) {
        const int c = static_cast<int>(rng() % 2);
        const FuClass fc = classes[c];
        // Half pushes, half pops, capped: the occupancy random-walks
        // over 0..64, around what a busy core queues.
        const unsigned op =
            ref[c].size() >= 64 ? 7 : static_cast<unsigned>(rng() % 8);
        ReadyRef r;
        if (op < 2) {
            r.stamp = next_stamp;
            next_stamp += 1 + rng() % 3;
        } else if (op == 2) {
            r.stamp = rng() % next_stamp;
            if (live.count(r.stamp))
                continue;
        } else if (op == 3 && !popped.empty()) {
            r = popped[rng() % popped.size()];
            if (live.count(r.stamp))
                continue;
        } else {
            ASSERT_EQ(q.empty(fc), ref[c].empty());
            ASSERT_EQ(q.size(fc), ref[c].size());
            if (ref[c].empty())
                continue;
            const ReadyRef want = ref[c].top();
            ASSERT_EQ(q.top(fc).stamp, want.stamp);
            const ReadyRef got = q.pop(fc);
            ref[c].pop();
            ASSERT_EQ(got.stamp, want.stamp) << "step " << step;
            ASSERT_EQ(got.tid, want.tid);
            ASSERT_EQ(got.seq, want.seq);
            ASSERT_EQ(got.epoch, want.epoch);
            ASSERT_EQ(got.slot, want.slot);
            live.erase(got.stamp);
            popped.push_back(got);
            ++pops;
            continue;
        }
        if (op < 3) {
            r.tid = static_cast<ThreadId>(rng() % 2);
            r.seq = rng();
            r.epoch = rng() % 4;
            r.slot = static_cast<std::uint32_t>(rng() % 256);
        }
        live.insert(r.stamp);
        q.push(fc, r);
        ref[c].push(r);
    }
    EXPECT_GT(pops, 80000u);
    EXPECT_EQ(q.totalSize(), ref[0].size() + ref[1].size());
    for (int c = 0; c < 2; ++c) {
        const auto entries = q.entries(classes[c]);
        EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end(),
                                   [](const ReadyRef &a,
                                      const ReadyRef &b) {
                                       return a.stamp < b.stamp;
                                   }));
        while (!ref[c].empty()) {
            ASSERT_EQ(q.pop(classes[c]).stamp, ref[c].top().stamp);
            ref[c].pop();
        }
        EXPECT_TRUE(q.empty(classes[c]));
    }
}

TEST(IssueQueue, EntriesListsLiveEntriesOldestFirst)
{
    IssueQueue q;
    for (std::uint64_t s : {40, 10, 30, 20})
        q.push(FuClass::FP, ref(s));
    q.pop(FuClass::FP);
    const auto entries = q.entries(FuClass::FP);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].stamp, 20u);
    EXPECT_EQ(entries[1].stamp, 30u);
    EXPECT_EQ(entries[2].stamp, 40u);
}

TEST(IssueQueue, SaveRestoreRoundTripsTheAgeOrder)
{
    // Save writes each queue's live entries oldest-first, and restore
    // takes them as they are: the restored queue pops by age and saves
    // the same bytes.
    IssueQueue q;
    for (std::uint64_t s : {17, 3, 42, 8, 25, 1, 33, 12})
        q.push(FuClass::LS, ref(s, static_cast<ThreadId>(s % 2), s * 10));
    q.push(FuClass::FX, ref(5));
    q.pop(FuClass::LS);
    CkptWriter w;
    IssueQueue::ckpt(std::as_const(q), w);

    IssueQueue restored;
    CkptReader r(w.data());
    IssueQueue::ckpt(restored, r);
    r.expectEnd();
    CkptWriter again;
    IssueQueue::ckpt(std::as_const(restored), again);
    EXPECT_TRUE(again.data() == w.data());

    EXPECT_EQ(restored.totalSize(), 8u);
    EXPECT_EQ(restored.pop(FuClass::FX).stamp, 5u);
    std::uint64_t last = 1;
    while (!restored.empty(FuClass::LS)) {
        const ReadyRef got = restored.pop(FuClass::LS);
        EXPECT_GT(got.stamp, last);
        EXPECT_EQ(got.seq, got.stamp * 10);
        last = got.stamp;
    }
    EXPECT_EQ(last, 42u);
}

TEST(IssueQueueDeath, PopEmptyIsPanic)
{
    IssueQueue q;
    EXPECT_DEATH(q.pop(FuClass::FX), "empty");
}

} // namespace
} // namespace p5
