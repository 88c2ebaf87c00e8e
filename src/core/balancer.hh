/**
 * @file
 * Dynamic hardware resource balancer (paper Sec. 3.1).
 *
 * POWER5 monitors whether one thread is blocking the other and throttles
 * the offender. The triggers modeled here match the paper's description:
 * too many GCT (reorder buffer) groups held, too many outstanding L2
 * misses (LMQ occupancy), or an outstanding TLB miss. The corrective
 * action is either Stall (stop decoding the offender until the congestion
 * clears) or Flush (additionally drop the offender's not-yet-issued
 * instructions).
 */

#ifndef P5SIM_CORE_BALANCER_HH
#define P5SIM_CORE_BALANCER_HH

#include <array>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/gct.hh"
#include "core/lsu.hh"
#include "core/params.hh"
#include "mem/lmq.hh"
#include "prio/slot_allocator.hh"

namespace p5 {

/** Which trigger blocked a thread (for per-trigger stat accounting). */
enum class BalanceBlock : std::uint8_t
{
    None, ///< not blocked
    Tlb,  ///< outstanding TLB walk
    Gct,  ///< holding too many GCT groups
    Lmq   ///< too many outstanding L2 misses
};

/** Per-cycle balancing decision. */
struct BalancerDecision
{
    /** Block decode of thread t this cycle. */
    std::array<bool, num_hw_threads> block{};

    /** Additionally flush thread t's not-yet-issued instructions. */
    std::array<bool, num_hw_threads> flush{};

    /** The trigger behind block[t] (None when not blocked). */
    std::array<BalanceBlock, num_hw_threads> reason{};
};

/** The balancer itself: pure policy over observable core state. */
class Balancer
{
  public:
    /**
     * @param gct_capacity and @p lmq_capacity size the per-pair limit
     *        table: they must be the capacities of the Gct and Lmq
     *        later passed to probe().
     */
    Balancer(const BalancerParams &params, int gct_capacity,
             int lmq_capacity);

    /** Priority view for the priority-aware thresholds. */
    void setPriorityView(const DecodeSlotAllocator *allocator);

    /**
     * Effective GCT-share threshold for @p tid under the priority pair
     * @p slots holds (nullptr: no priority view). A builder of the
     * per-pair limit table.
     */
    double gctThresholdFor(ThreadId tid,
                           const DecodeSlotAllocator *slots) const;

    /** Effective LMQ-occupancy threshold for @p tid (table builder). */
    int lmqThresholdFor(ThreadId tid,
                        const DecodeSlotAllocator *slots) const;

    /**
     * Evaluate the triggers at cycle @p now without touching the
     * per-trigger counters. Pure policy over observable state: calling
     * probe() repeatedly at the same cycle returns the same decision.
     */
    BalancerDecision
    probe(const Gct &gct, const Lmq &lmq, const Lsu &lsu,
          bool both_running, Cycle now) const
    {
        BalancerDecision d;
        // Resource hogging is only "offending" when there is a sibling
        // to block.
        if (!params_.enabled || !both_running)
            return d;

        const PairLimits &lim = currentLimits();
        for (ThreadId t = 0; t < num_hw_threads; ++t) {
            const auto ti = static_cast<size_t>(t);

            // An outstanding TLB walk blocks further decode of the
            // walking thread (it would only pile more work behind the
            // walk).
            if (params_.blockOnTlbMiss && lsu.tlbWalkInProgress(t, now)) {
                d.block[ti] = true;
                d.reason[ti] = BalanceBlock::Tlb;
                continue;
            }

            if (gct.occupancyOf(t) > lim.gctAbove[ti]) {
                d.block[ti] = true;
                d.reason[ti] = BalanceBlock::Gct;
                if (params_.action == BalanceAction::Flush)
                    d.flush[ti] = true;
                continue;
            }

            if (lmq.busyOfAt(t, now) >= lim.lmqAtLeast[ti]) {
                d.block[ti] = true;
                d.reason[ti] = BalanceBlock::Lmq;
            }
        }
        return d;
    }

    /**
     * Account @p cycles cycles of decision @p d in the per-trigger
     * block/flush counters: the core charges each tick's decision
     * once, and an idle gap's, constant across the gap, once for the
     * whole gap.
     */
    void
    charge(const BalancerDecision &d, std::uint64_t cycles)
    {
        for (size_t ti = 0; ti < num_hw_threads; ++ti) {
            switch (d.reason[ti]) {
              case BalanceBlock::None:
                break;
              case BalanceBlock::Tlb:
                tlbBlocks_[ti] += cycles;
                break;
              case BalanceBlock::Gct:
                gctBlocks_[ti] += cycles;
                if (d.flush[ti])
                    flushes_[ti] += cycles;
                break;
              case BalanceBlock::Lmq:
                lmqBlocks_[ti] += cycles;
                break;
            }
        }
    }

    const BalancerParams &params() const { return params_; }

    std::uint64_t
    gctBlocksOf(ThreadId tid) const
    {
        return gctBlocks_[static_cast<size_t>(tid)].value();
    }
    std::uint64_t
    lmqBlocksOf(ThreadId tid) const
    {
        return lmqBlocks_[static_cast<size_t>(tid)].value();
    }
    std::uint64_t
    tlbBlocksOf(ThreadId tid) const
    {
        return tlbBlocks_[static_cast<size_t>(tid)].value();
    }
    std::uint64_t
    flushesOf(ThreadId tid) const
    {
        return flushes_[static_cast<size_t>(tid)].value();
    }

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint body (ckpt_state.cc): the per-trigger counters (the
     * policy itself is stateless).
     */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    /**
     * Integer trigger limits of one priority pair: thread t is a GCT hog
     * when it holds more than gctAbove[t] groups, and an LMQ hog when
     * it has at least lmqAtLeast[t] busy entries.
     */
    struct PairLimits
    {
        std::array<int, num_hw_threads> gctAbove{};
        std::array<int, num_hw_threads> lmqAtLeast{};
    };

    static constexpr int num_levels = max_priority + 1;
    static constexpr std::size_t num_pairs = num_levels * num_levels;

    using PairAllocators = std::array<DecodeSlotAllocator, num_pairs>;

    /**
     * A slot allocator set to each pair, built once per process; like
     * pairs_, indexed P * num_levels + S.
     */
    static const PairAllocators &pairAllocators();

    /** Limits under the pair @p slots holds (nullptr: no view). */
    PairLimits limitsFor(const DecodeSlotAllocator *slots) const;

    /** The limits of the current pair: one table read. */
    const PairLimits &
    currentLimits() const
    {
        if (!priorities_)
            return unscaled_;
        return pairs_[static_cast<std::size_t>(
            priorities_->priorityOf(0) * num_levels +
            priorities_->priorityOf(1))];
    }

    BalancerParams params_;
    int gctCapacity_;
    int lmqCapacity_;
    const DecodeSlotAllocator *priorities_ = nullptr;

    /** Limits with no priority view, and of every (P, S) pair. */
    PairLimits unscaled_;
    std::array<PairLimits, num_pairs> pairs_{};
    std::array<Counter, num_hw_threads> gctBlocks_;
    std::array<Counter, num_hw_threads> lmqBlocks_;
    std::array<Counter, num_hw_threads> tlbBlocks_;
    std::array<Counter, num_hw_threads> flushes_;
};

} // namespace p5

#endif // P5SIM_CORE_BALANCER_HH
