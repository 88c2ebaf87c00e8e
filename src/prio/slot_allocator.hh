/**
 * @file
 * Decode-slot allocation from software-controlled priorities.
 *
 * The paper's formula (Sec. 3.2):
 *
 *     R = 2^(|PrioP - PrioS| + 1)
 *
 * Out of every R consecutive decode cycles the higher-priority thread
 * receives R-1 and the lower-priority thread receives the remaining one.
 * Equal priorities alternate (R = 2). Special cases:
 *
 *  - priority 0: the thread is shut off;
 *  - priority 7: the thread runs in single-thread mode (sibling off);
 *  - both threads at priority 1: low-power mode, one instruction decoded
 *    every 32 cycles in total.
 */

#ifndef P5SIM_PRIO_SLOT_ALLOCATOR_HH
#define P5SIM_PRIO_SLOT_ALLOCATOR_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "prio/priority.hh"

namespace p5 {

/** Operating mode implied by the (PrioP, PrioS) pair. */
enum class SlotMode
{
    Dual,     ///< both threads decode, R-1:1 split
    SingleP,  ///< only the primary thread decodes (ST mode)
    SingleS,  ///< only the secondary thread decodes (ST mode)
    LowPower, ///< both at priority 1: 1 instruction per 32 cycles
    AllOff    ///< both threads shut off
};

/** Name of a slot mode. */
const char *slotModeName(SlotMode mode);

/** Decode grant for one cycle. */
struct SlotGrant
{
    /** Thread that owns the decode stage this cycle, or -1 for none. */
    ThreadId owner = -1;

    /** Maximum instructions decodable this cycle (low-power mode: 1). */
    int maxWidth = 0;
};

/**
 * Maps cycle numbers to decode-slot owners for a priority pair.
 *
 * Deterministic and stateless per cycle: the owner of cycle c is a pure
 * function of (PrioP, PrioS, c), so tests can verify exact R-1:1 patterns.
 * Every per-cycle query is a table read: a priority change rebuilds one
 * grant period of grants plus the prefix counts and next-grant offsets
 * derived from it (recompute()).
 */
class DecodeSlotAllocator
{
  public:
    /**
     * @param decode_width full decode width granted in normal slots.
     * @param minority_width width of the single slot granted to the
     *        *lower*-priority thread of an unequal pair. On real
     *        POWER5 the starved thread's slots deliver only ~2 IOPs
     *        (fetch-buffer and group-formation effects); calibrated to
     *        the paper's Fig. 3 slowdowns. Defaults to decode_width
     *        (no penalty) when <= 0 is passed.
     */
    explicit DecodeSlotAllocator(int decode_width = 5,
                                 int minority_width = -1);

    /** Set both priorities; fatal on invalid levels. */
    void setPriorities(int prio_p, int prio_s);

    void setPriority(ThreadId tid, int prio);

    int
    priorityOf(ThreadId tid) const
    {
        if (tid == 0)
            return prioP_;
        if (tid == 1)
            return prioS_;
        badThread(tid);
    }

    /** The R of the formula for the current pair (Dual mode only). */
    int slotWindow() const { return window_; }

    /** Mode implied by the current pair. */
    SlotMode mode() const { return mode_; }

    /**
     * The grant pattern is periodic in the cycle number with this
     * period under *every* mode: in Dual mode the window R = 2^(|d|+1)
     * is a power of two <= 64, and low-power mode repeats every 64
     * cycles (one slot per 32, alternating owner). The tables below
     * exploit this — grantAt(c) == grantAt(c % 64 + k*64) — which is
     * also what makes bulk slot accounting across skipped idle gaps
     * exact.
     */
    static constexpr Cycle grant_period = 64;

    /**
     * The least period of the current grant pattern: a power of two
     * dividing grant_period (the window R in Dual mode). Two cycles
     * with equal cycle % grantPhasePeriod() see equal slots from then
     * on, which the period skip reads as the decode-slot phase.
     */
    Cycle grantPhasePeriod() const { return phasePeriod_; }

    /** True iff @p tid may decode at all under the current pair. */
    bool
    threadActive(ThreadId tid) const
    {
        return static_cast<unsigned>(tid) < num_hw_threads &&
               active_[static_cast<std::size_t>(tid)];
    }

    /** Decode grant for cycle @p cycle. */
    SlotGrant
    grantAt(Cycle cycle) const
    {
        return grants_[cycle % grant_period];
    }

    /**
     * Earliest cycle strictly after @p after whose slot @p tid owns,
     * or never_cycle when it never will under the current pair.
     */
    Cycle
    nextGrantCycle(Cycle after, ThreadId tid) const
    {
        if (!threadActive(tid))
            return never_cycle;
        return nextOwnedCycle(static_cast<std::size_t>(tid), after);
    }

    /**
     * Earliest cycle strictly after @p after whose slot anyone owns,
     * or never_cycle (AllOff).
     */
    Cycle
    nextAnyGrantCycle(Cycle after) const
    {
        return nextOwnedCycle(any_row, after);
    }

    /**
     * Number of slots in [@p begin, @p end) owned by each thread under
     * the current pair. O(1), independent of the range length.
     */
    std::array<std::uint64_t, num_hw_threads>
    ownedSlotsInRange(Cycle begin, Cycle end) const
    {
        std::array<std::uint64_t, num_hw_threads> counts{};
        if (end <= begin)
            return counts;
        for (std::size_t t = 0; t < num_hw_threads; ++t)
            counts[t] = ownedBelow(t, end) - ownedBelow(t, begin);
        return counts;
    }

    /** The R of the formula for an arbitrary pair (pure helper). */
    static int computeR(int prio_p, int prio_s);

    /**
     * Fraction of decode slots owned by the primary thread under the
     * current pair (e.g. 31/32 at +4); used by tests and docs.
     */
    double primaryShare() const { return share_[0]; }

    /** Fraction of decode slots owned by @p tid. */
    double
    shareOf(ThreadId tid) const
    {
        return share_[tid == 0 ? 0 : 1];
    }

  private:
    [[noreturn]] void badThread(ThreadId tid) const;

    /** Row of nextGrant_ that tracks slots owned by any thread. */
    static constexpr std::size_t any_row = num_hw_threads;

    /** Rebuild mode, window and every table from the priority pair. */
    void recompute();

    /** Grant of residue @p r under the current mode (recompute only). */
    SlotGrant grantFor(Cycle r) const;

    /** Slots owned by thread @p t among the cycles [0, @p x). */
    std::uint64_t
    ownedBelow(std::size_t t, Cycle x) const
    {
        return x / grant_period * owned_[t][grant_period] +
               owned_[t][x % grant_period];
    }

    /** First cycle after @p after owned per nextGrant_ row @p row. */
    Cycle
    nextOwnedCycle(std::size_t row, Cycle after) const
    {
        const std::uint8_t offset = nextGrant_[row][after % grant_period];
        return offset == 0 ? never_cycle : saturatingAdd(after, offset);
    }

    int decodeWidth_;
    int minorityWidth_;
    int prioP_ = default_priority;
    int prioS_ = default_priority;
    SlotMode mode_ = SlotMode::Dual;
    int window_ = 2;

    /** grants_[r]: the grant of every cycle congruent to r. */
    std::array<SlotGrant, grant_period> grants_{};
    Cycle phasePeriod_ = grant_period;

    /** owned_[t][r]: slots thread t owns among residues [0, r). */
    std::array<std::array<std::uint8_t, grant_period + 1>, num_hw_threads>
        owned_{};

    /**
     * nextGrant_[t][r]: the least d in [1, grant_period] such that
     * residue (r + d) % grant_period is owned by t (by anyone for row
     * any_row), or 0 when there is none.
     */
    std::array<std::array<std::uint8_t, grant_period>, num_hw_threads + 1>
        nextGrant_{};

    std::array<bool, num_hw_threads> active_{};

    /** share_[t]: fraction of the owned slots that thread t owns. */
    std::array<double, num_hw_threads> share_{};
};

} // namespace p5

#endif // P5SIM_PRIO_SLOT_ALLOCATOR_HH
