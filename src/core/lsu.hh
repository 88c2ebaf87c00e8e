/**
 * @file
 * Load/store unit: bridges the core to the cache hierarchy and the LMQ.
 *
 * Responsibilities:
 *  - per-thread address-space separation (two hardware threads run two
 *    processes; they share cache *capacity*, not cache *lines*);
 *  - address translation through the per-thread D-TLBs, with a single
 *    shared table-walk engine per core whose scheduling follows the
 *    software-controlled thread priorities like the decode slots do —
 *    this is what makes a low-priority memory-bound thread collapse when
 *    co-run with a walking sibling (paper Fig. 3(f)) while staying
 *    insensitive otherwise;
 *  - LMQ admission control: a load that would miss L1 cannot issue
 *    without a free LMQ entry;
 *  - tracking outstanding TLB walks for the balancer.
 */

#ifndef P5SIM_CORE_LSU_HH
#define P5SIM_CORE_LSU_HH

#include <array>

#include "common/annotate.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/params.hh"
#include "mem/hierarchy.hh"
#include "mem/lmq.hh"
#include "prio/slot_allocator.hh"

namespace p5 {

/** The load/store unit of one SMT core. */
class Lsu
{
  public:
    /** @param hierarchy and @p lmq must outlive the LSU. */
    Lsu(const CoreParams &params, CacheHierarchy *hierarchy, Lmq *lmq);

    /**
     * Give the LSU a view of the current thread priorities so the
     * table-walk engine can arbitrate like the decode slots.
     */
    void setPriorityView(const DecodeSlotAllocator *allocator);

    /** Thread-private effective address (ASID offset applied). */
    Addr effectiveAddr(ThreadId tid, Addr addr) const;

    /**
     * Issue a load at @p now. An L1 miss needs an LMQ entry; when the
     * queue is full the miss waits (its latency grows) until an entry
     * frees.
     */
    MemAccessResult issueLoad(ThreadId tid, Addr addr, Cycle now);

    /**
     * Issue a store at @p now. Stores are fire-and-forget for timing
     * purposes (the STQ drains post-commit) but consume hierarchy
     * bandwidth and warm/evict lines.
     */
    MemAccessResult issueStore(ThreadId tid, Addr addr, Cycle now);

    /** True while a table walk for @p tid is outstanding at @p now. */
    bool
    tlbWalkInProgress(ThreadId tid, Cycle now) const
    {
        return walkUntil_[static_cast<size_t>(tid)] > now;
    }

    /**
     * Earliest cycle after @p now at which any LSU-side timing state
     * changes (a walk completes, the walker or its service window
     * frees, the sibling port gate opens), or never_cycle when nothing
     * is pending. Part of the fast-forward next-event contract: between
     * now and the returned cycle every LSU predicate the core or the
     * balancer consults is constant.
     */
    P5_PROBE_PURE Cycle nextEventCycle(Cycle now) const;

    std::uint64_t
    loadsOf(ThreadId tid) const
    {
        return loads_[static_cast<size_t>(tid)].value();
    }
    std::uint64_t
    storesOf(ThreadId tid) const
    {
        return stores_[static_cast<size_t>(tid)].value();
    }
    std::uint64_t
    walksOf(ThreadId tid) const
    {
        return walks_[static_cast<size_t>(tid)].value();
    }
    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint body (ckpt_state.cc): walker/port timing state and
     * counters. The params / hierarchy / lmq / priority-view pointers
     * are wiring, not state — the restoring core re-establishes them
     * at construction.
     */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    /** Translate; returns the cycle the physical access may start. */
    Cycle translate(ThreadId tid, Addr ea, Cycle now, bool *walked);

    /** Expected latency of an L1 miss serviced at @p level (for LMQ
     *  windows). */
    int estimatedLatency(MemLevel level) const;

    /** Reserve the shared walker; returns the walk's start cycle. */
    Cycle reserveWalker(ThreadId tid, Cycle now);

    const CoreParams &params_;
    CacheHierarchy *hierarchy_;
    Lmq *lmq_;
    const DecodeSlotAllocator *priorities_ = nullptr;

    Cycle walkerNextFree_ = 0;
    /** Cycle of each thread's most recent walk request; never_cycle
     *  until its first walk, so a thread whose sibling has never walked
     *  is not treated as contended at start-of-run. */
    std::array<Cycle, num_hw_threads> lastWalkRequest_{never_cycle,
                                                       never_cycle};
    std::array<Cycle, num_hw_threads> walkUntil_{};

    /** Current walker service window (for the sibling port gate). */
    ThreadId walkerTid_ = -1;
    Cycle walkerServiceUntil_ = 0;
    Cycle portNextFree_ = 0;

    /** Apply the sibling port gate to an access at @p ready. */
    Cycle portGate(ThreadId tid, Cycle now, Cycle ready);

    std::array<Counter, num_hw_threads> loads_;
    std::array<Counter, num_hw_threads> stores_;
    std::array<Counter, num_hw_threads> walks_;
    Counter levelCounts_[4];
};

} // namespace p5

#endif // P5SIM_CORE_LSU_HH
