/**
 * @file
 * Global Completion Table (the POWER5 reorder buffer).
 *
 * The GCT is a pool of group entries shared by both threads; each group
 * holds up to groupSize consecutive instructions of one thread. Decode
 * dispatches one group per cycle; commit retires the oldest group of a
 * thread once all of its instructions have finished. Per-thread occupancy
 * is what the dynamic resource balancer watches.
 *
 * Each group counts its unfinished instructions, so commit readiness is
 * one read. The core decrements the count as instructions finish and
 * recounts a group a squash truncated; the count is derived state,
 * rebuilt from the instruction window on checkpoint restore.
 */

#ifndef P5SIM_CORE_GCT_HH
#define P5SIM_CORE_GCT_HH

#include "common/ring_deque.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace p5 {

/** One GCT group: instructions [startSeq, startSeq + count) of a thread. */
struct GctGroup
{
    SeqNum startSeq = 0;
    int count = 0;

    /** Instructions of the group not yet Finished. */
    int unfinished = 0;

    bool
    contains(SeqNum seq) const
    {
        return seq - startSeq < static_cast<SeqNum>(count);
    }
};

/** The shared GCT. */
class Gct
{
  public:
    explicit Gct(int num_groups);

    /** Total group capacity. */
    int capacity() const { return capacity_; }

    /** Groups currently allocated (both threads). */
    int
    occupancy() const
    {
        return static_cast<int>(groups_[0].size() + groups_[1].size());
    }

    /** Groups currently allocated by @p tid. */
    int
    occupancyOf(ThreadId tid) const
    {
        return static_cast<int>(groups_[static_cast<size_t>(tid)].size());
    }

    bool hasFreeGroup() const { return occupancy() < capacity_; }

    /**
     * Allocate a group with every instruction unfinished; panics if
     * full (caller checks hasFreeGroup).
     *
     * @return the group's handle for finishOne().
     */
    std::uint32_t allocate(ThreadId tid, SeqNum start_seq, int count);

    /**
     * Instruction @p seq of @p tid finished: decrement its group's
     * unfinished count. @p group is the handle allocate() returned, a
     * physical ring slot validated by the group's seq range; a stale
     * handle falls back to a search, so it is never wrong, at worst
     * slow.
     */
    void
    finishOne(ThreadId tid, std::uint32_t group, SeqNum seq)
    {
        GctGroup *g = groups_[static_cast<size_t>(tid)].liveAtPhys(group);
        if (!g || !g->contains(seq) || g->unfinished <= 0) [[unlikely]]
            g = findUnfinished(tid, seq);
        --g->unfinished;
    }

    /**
     * Set the unfinished count of @p tid's group at logical index @p i
     * (0 == oldest) after recounting it from the window.
     */
    void setUnfinished(ThreadId tid, std::size_t i, int unfinished);

    /** @return the oldest group of @p tid; panics if none. */
    const GctGroup &
    oldest(ThreadId tid) const
    {
        const auto &q = groups_[static_cast<size_t>(tid)];
        if (q.empty()) [[unlikely]]
            panicNoOldest(tid);
        return q.front();
    }

    bool
    empty(ThreadId tid) const
    {
        return groups_[static_cast<size_t>(tid)].empty();
    }

    /** Retire the oldest group of @p tid. */
    void popOldest(ThreadId tid);

    /**
     * Squash: drop all groups of @p tid whose instructions are entirely
     * after @p last_good_seq and truncate the group that straddles it.
     * A truncated group keeps its unfinished count: only the caller
     * knows which dropped instructions had finished, so it recounts.
     */
    void squash(ThreadId tid, SeqNum last_good_seq);

    /**
     * Squash every instruction of @p tid with seq >= @p first_bad_seq
     * (the underflow-safe form used for dispatch flushes).
     */
    void squashFrom(ThreadId tid, SeqNum first_bad_seq);

    /** Drop every group of @p tid. */
    void clearThread(ThreadId tid);

    /** Iterate over @p tid's groups, oldest first. */
    const RingDeque<GctGroup> &
    groupsOf(ThreadId tid) const
    {
        return groups_[static_cast<size_t>(tid)];
    }

    std::uint64_t allocated() const { return allocated_.value(); }
    std::uint64_t retired() const { return retired_.value(); }

    void registerStats(StatGroup &group) const;

    /** Checkpoint body (ckpt_state.cc): both group rings and counters. */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    /**
     * finishOne()'s slow path: the group of @p tid holding @p seq,
     * found by search; panics if there is none or it has no
     * unfinished instruction left.
     */
    GctGroup *findUnfinished(ThreadId tid, SeqNum seq);

    /** oldest() on an empty thread. */
    [[noreturn]] void panicNoOldest(ThreadId tid) const;

    int capacity_;
    RingDeque<GctGroup> groups_[num_hw_threads];
    Counter allocated_;
    Counter retired_;
};

} // namespace p5

#endif // P5SIM_CORE_GCT_HH
