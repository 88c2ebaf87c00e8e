/**
 * @file
 * Load-miss queue (LMQ / MSHR) model.
 *
 * POWER5's LMQ has eight entries shared by both threads; a load that
 * misses L1D needs an entry for the duration of the miss, which bounds
 * memory-level parallelism and creates contention between a memory-bound
 * thread and its sibling. The balancer watches per-thread occupancy as
 * its "too many outstanding L2 misses" signal.
 *
 * Entries are modeled as busy *windows* [start, release): a load whose
 * translation is still walking occupies its entry only once the cache
 * access begins (on real hardware the load is rejected and reissued
 * after the walk, holding no LMQ entry meanwhile). When all entries are
 * busy the new miss *queues*: its window is pushed back to the first
 * point where an entry frees.
 *
 * Occupancy is event-driven. The queue is synced to one cycle
 * (advanceTo()) and keeps its per-thread busy counts for that cycle;
 * every stored window sits in an edge list under its next edge — its
 * start while pending, its release while busy — sorted so the earliest
 * edge is at the front. Advancing pops the edges it crosses, so the
 * occupancy queries and nextEventCycle() are O(1) reads.
 */

#ifndef P5SIM_MEM_LMQ_HH
#define P5SIM_MEM_LMQ_HH

#include <array>
#include <cstddef>

#include "common/annotate.hh"
#include "common/ring_deque.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace p5 {

/** Shared load-miss queue with per-thread occupancy accounting. */
class Lmq
{
  public:
    /** One miss's entry window [startCycle, releaseCycle). */
    struct Window
    {
        ThreadId tid = 0;
        Cycle startCycle = 0;
        Cycle releaseCycle = 0;
    };

    /** A stored window under its next edge (start if pending, else
     *  release); always after the synced cycle. */
    struct Edge
    {
        Cycle cycle = 0;
        Window window;
    };

    explicit Lmq(int entries);

    /**
     * Reserve an entry for thread @p tid over [@p start_cycle,
     * @p release_cycle), queueing (delaying the window) while the queue
     * is full. Advances the queue to @p now first.
     * @pre @p now <= @p start_cycle < @p release_cycle.
     *
     * @return the actual start cycle (>= start_cycle).
     */
    Cycle reserve(ThreadId tid, Cycle now, Cycle start_cycle,
                  Cycle release_cycle);

    /**
     * Adjust the release cycle of the window reserved last (once the
     * actual miss latency is known). Valid until the queue advances.
     */
    void updateLastRelease(Cycle release_cycle);

    /**
     * Sync the queue to cycle @p now (never backwards): windows that
     * start by @p now become busy, windows that release by @p now are
     * dropped. O(1) when no edge is crossed.
     */
    void
    advanceTo(Cycle now)
    {
        if (now > now_ && (edges_.empty() || edges_.front().cycle > now)) {
            now_ = now;
            last_ = no_reservation;
            return;
        }
        if (now != now_)
            advanceAcross(now);
    }

    /** The cycle the queue is synced to. */
    Cycle syncedCycle() const { return now_; }

    /** Entries busy at @p now, which must be the synced cycle. */
    int
    busyAt(Cycle now) const
    {
        checkSynced(now);
        int n = 0;
        for (int b : busy_)
            n += b;
        return n;
    }

    /** Entries of @p tid busy at @p now (the synced cycle). */
    int
    busyOfAt(ThreadId tid, Cycle now) const
    {
        checkSynced(now);
        return busy_[static_cast<std::size_t>(tid)];
    }

    /**
     * Earliest cycle after @p now (the synced cycle) at which occupancy
     * can change (a pending window starts or a busy one releases), or
     * never_cycle. Fast-forward next-event contract:
     * busyAt()/busyOfAt() are constant over (now, nextEventCycle(now)).
     */
    P5_PROBE_PURE Cycle
    nextEventCycle(Cycle now) const
    {
        checkSynced(now);
        return edges_.empty() ? never_cycle : edges_.front().cycle;
    }

    /** Every stored window under its next edge, earliest edge first. */
    const RingDeque<Edge> &edges() const { return edges_; }

    /** Release everything belonging to @p tid (squash support). */
    void releaseThread(ThreadId tid);

    /** Release all entries. */
    void reset();

    int capacity() const { return capacity_; }
    std::uint64_t allocations() const { return allocations_.value(); }

    /** Misses that had to wait for a free entry. */
    std::uint64_t queuedMisses() const { return queuedMisses_.value(); }

    /** Total cycles misses spent waiting for entries. */
    std::uint64_t queuedCycles() const { return queuedCycles_.value(); }

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint body (ckpt_state.cc): the stored windows and counters
     * at cycle @p now. A save needs @p now to be the synced cycle, so
     * every stored window releases after it; a restore comes back
     * synced to @p now, and a window that is malformed or already
     * released at @p now is fatal.
     */
    template <class Self, class Io>
    static void ckpt(Self &self, Io &io, Cycle now);

  private:
    friend struct LmqTestAccess; // corruption injection in p5check tests

    static constexpr std::size_t no_reservation = ~std::size_t{0};

    void
    checkSynced(Cycle now) const
    {
        if (now != now_) [[unlikely]]
            unsynced(now);
    }

    [[noreturn]] void unsynced(Cycle now) const;

    /** advanceTo() across at least one edge (or backwards: a panic). */
    void advanceAcross(Cycle now);

    /** The next edge of stored window @p w: its start while pending,
     *  else its release. */
    Cycle
    edgeOf(const Window &w) const
    {
        return w.startCycle > now_ ? w.startCycle : w.releaseCycle;
    }

    /** File @p w under its next edge; returns its index. */
    std::size_t insert(const Window &w);

    /** Move the edge at index @p i to its place after its window's
     *  release changed; returns its new index. */
    std::size_t refile(std::size_t i);

    int capacity_;
    Cycle now_ = 0;
    std::array<int, num_hw_threads> busy_{};

    /**
     * Stored windows have no bound in the entry count: a miss that
     * finds every entry busy is queued into the future, and a burst of
     * them stacks windows back to back (the LMQ tests queue five times
     * the entries). What bounds them in the core is the loads in
     * flight, squashed ones included: the paper's reproduction peaks
     * at 27 on the 8-entry queue (fig5). The constructor reserves 64
     * (or 4x the entries if that is more); a larger burst regrows the
     * ring on RingDeque's out-of-line spill path.
     */
    RingDeque<Edge> edges_;
    std::size_t last_ = no_reservation;
    Counter allocations_;
    Counter queuedMisses_;
    Counter queuedCycles_;
};

} // namespace p5

#endif // P5SIM_MEM_LMQ_HH
