/**
 * @file
 * Decode-slot arbitration.
 *
 * Combines the software-priority slot allocator with per-cycle usability
 * and accounts for what happened to every slot. Usability comes from
 * the core's decode gate (SmtCore::DecodeGate: balancer blocks,
 * redirect penalties, GCT admission). A slot whose owner cannot use it
 * is forfeited — POWER5 slots are strictly owned — unless the
 * work-conserving ablation knob hands it to the sibling. wouldGrant()
 * is the one grant rule: decide() applies it and charges the slot, and
 * the core's idle probe asks it without charging.
 */

#ifndef P5SIM_CORE_DECODE_ARBITER_HH
#define P5SIM_CORE_DECODE_ARBITER_HH

#include <array>

#include "common/stats.hh"
#include "common/types.hh"
#include "prio/slot_allocator.hh"

namespace p5 {

/** The decode arbiter of one SMT core. */
class DecodeArbiter
{
  public:
    DecodeArbiter(int decode_width, int minority_width,
                  bool work_conserving);

    /** Access to the underlying priority allocator. */
    DecodeSlotAllocator &allocator() { return allocator_; }
    const DecodeSlotAllocator &allocator() const { return allocator_; }

    /**
     * The thread that gets cycle @p now's slot, or -1: the owner when
     * it can use the slot, else — work-conserving — its usable, active
     * sibling. Charges nothing.
     *
     * @param can_use whether each thread could decode this cycle if
     *        granted the slot (attached, not stalled).
     */
    ThreadId
    wouldGrant(Cycle now,
               const std::array<bool, num_hw_threads> &can_use) const
    {
        const ThreadId owner = allocator_.grantAt(now).owner;
        if (owner < 0 || can_use[static_cast<size_t>(owner)])
            return owner;
        const ThreadId sibling = static_cast<ThreadId>(1 - owner);
        if (workConserving_ && can_use[static_cast<size_t>(sibling)] &&
            allocator_.threadActive(sibling))
            return sibling;
        return -1;
    }

    /**
     * Decide this cycle's decode grant: wouldGrant(), with the slot
     * charged to its owner as granted or forfeited, and to the sibling
     * as reassigned when it inherits the slot.
     */
    SlotGrant decide(Cycle now,
                     const std::array<bool, num_hw_threads> &can_use);

    /**
     * Account every slot in [@p begin, @p end) as forfeited by its
     * owner. Used by the fast-forward path for gaps where no thread can
     * decode: decide() would have charged exactly one forfeit to the
     * slot owner of each cycle, which ownedSlotsInRange() reproduces
     * arithmetically.
     */
    void chargeForfeits(Cycle begin, Cycle end);

    /** Whether forfeited slots are handed to a usable sibling. */
    bool workConserving() const { return workConserving_; }

    std::uint64_t
    slotsGrantedTo(ThreadId tid) const
    {
        return granted_[static_cast<size_t>(tid)].value();
    }
    std::uint64_t
    slotsForfeitedBy(ThreadId tid) const
    {
        return forfeited_[static_cast<size_t>(tid)].value();
    }
    std::uint64_t
    slotsReassignedTo(ThreadId tid) const
    {
        return reassigned_[static_cast<size_t>(tid)].value();
    }

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint body (ckpt_state.cc): the slot counters. The allocator
     * is a pure function of the priorities, which the restoring core
     * re-applies itself.
     */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    DecodeSlotAllocator allocator_;
    bool workConserving_;

    std::array<Counter, num_hw_threads> granted_;
    std::array<Counter, num_hw_threads> forfeited_;
    std::array<Counter, num_hw_threads> reassigned_;
};

} // namespace p5

#endif // P5SIM_CORE_DECODE_ARBITER_HH
