#include "prio/slot_allocator.hh"

#include <cstdlib>

#include "common/log.hh"

namespace p5 {

const char *
slotModeName(SlotMode mode)
{
    switch (mode) {
      case SlotMode::Dual:
        return "Dual";
      case SlotMode::SingleP:
        return "SingleP";
      case SlotMode::SingleS:
        return "SingleS";
      case SlotMode::LowPower:
        return "LowPower";
      case SlotMode::AllOff:
        return "AllOff";
      default:
        panic("slotModeName: bad mode %d", static_cast<int>(mode));
    }
}

DecodeSlotAllocator::DecodeSlotAllocator(int decode_width,
                                         int minority_width)
    : decodeWidth_(decode_width),
      minorityWidth_(minority_width > 0 ? minority_width : decode_width)
{
    if (decode_width <= 0)
        fatal("decode width must be positive");
    recompute();
}

void
DecodeSlotAllocator::setPriorities(int prio_p, int prio_s)
{
    if (!isValidPriority(prio_p) || !isValidPriority(prio_s))
        fatal("invalid priority pair (%d,%d)", prio_p, prio_s);
    prioP_ = prio_p;
    prioS_ = prio_s;
    recompute();
}

void
DecodeSlotAllocator::setPriority(ThreadId tid, int prio)
{
    if (tid == 0)
        setPriorities(prio, prioS_);
    else if (tid == 1)
        setPriorities(prioP_, prio);
    else
        panic("setPriority: bad thread id %d", tid);
}

void
DecodeSlotAllocator::badThread(ThreadId tid) const
{
    panic("priorityOf: bad thread id %d", tid);
}

int
DecodeSlotAllocator::computeR(int prio_p, int prio_s)
{
    int diff = std::abs(prio_p - prio_s);
    return 1 << (diff + 1);
}

void
DecodeSlotAllocator::recompute()
{
    if (prioP_ == 0 && prioS_ == 0) {
        mode_ = SlotMode::AllOff;
        window_ = 0;
    } else if (prioP_ == 7 || prioS_ == 0) {
        // Priority 7 means "run in single-thread mode" (sibling off);
        // the same happens when the sibling is shut off with priority 0.
        mode_ = SlotMode::SingleP;
        window_ = 1;
    } else if (prioS_ == 7 || prioP_ == 0) {
        mode_ = SlotMode::SingleS;
        window_ = 1;
    } else if (prioP_ == 1 && prioS_ == 1) {
        mode_ = SlotMode::LowPower;
        window_ = 32;
    } else {
        mode_ = SlotMode::Dual;
        window_ = computeR(prioP_, prioS_);
    }

    for (Cycle r = 0; r < grant_period; ++r)
        grants_[r] = grantFor(r);
    // The least divisor of grant_period the pattern repeats with.
    for (phasePeriod_ = 1; phasePeriod_ < grant_period; phasePeriod_ *= 2) {
        bool repeats = true;
        for (Cycle r = 0; r < grant_period && repeats; ++r) {
            const SlotGrant &a = grants_[r];
            const SlotGrant &b = grants_[(r + phasePeriod_) % grant_period];
            repeats = a.owner == b.owner && a.maxWidth == b.maxWidth;
        }
        if (repeats)
            break;
    }

    const auto owns = [this](std::size_t row, Cycle r) {
        const ThreadId owner = grants_[r].owner;
        return row == any_row ? owner >= 0
                              : owner == static_cast<ThreadId>(row);
    };
    for (std::size_t t = 0; t < num_hw_threads; ++t) {
        owned_[t][0] = 0;
        for (Cycle r = 0; r < grant_period; ++r)
            owned_[t][r + 1] =
                static_cast<std::uint8_t>(owned_[t][r] + owns(t, r));
        active_[t] = owned_[t][grant_period] > 0;
    }
    // Scan two periods backwards: at position i < grant_period, 'next'
    // is the first owned position j in (i, i + grant_period].
    for (std::size_t row = 0; row <= any_row; ++row) {
        Cycle next = never_cycle;
        for (Cycle i = 2 * grant_period; i-- > 0;) {
            const Cycle r = i % grant_period;
            if (i < grant_period)
                nextGrant_[row][r] = static_cast<std::uint8_t>(
                    next == never_cycle ? 0 : next - i);
            if (owns(row, r))
                next = i;
        }
    }

    // Shares of the owned slots: exact (power-of-two denominators), and
    // 1/2 each in low-power mode, where both own one slot per period.
    const std::uint64_t total =
        owned_[0][grant_period] + owned_[1][grant_period];
    share_[0] = total == 0 ? 0.0
                           : static_cast<double>(owned_[0][grant_period]) /
                                 static_cast<double>(total);
    share_[1] = 1.0 - share_[0];
}

SlotGrant
DecodeSlotAllocator::grantFor(Cycle r) const
{
    SlotGrant g;
    switch (mode_) {
      case SlotMode::AllOff:
        return g;
      case SlotMode::SingleP:
        g.owner = 0;
        g.maxWidth = decodeWidth_;
        return g;
      case SlotMode::SingleS:
        g.owner = 1;
        g.maxWidth = decodeWidth_;
        return g;
      case SlotMode::LowPower:
        // One instruction decoded every 32 cycles in total; the single
        // slot alternates between the threads.
        if (r % 32 == 0) {
            g.owner = static_cast<ThreadId>((r / 32) % 2);
            g.maxWidth = 1;
        }
        return g;
      case SlotMode::Dual:
        if (prioP_ == prioS_) {
            // Equal priorities: R == 2, strict alternation.
            g.owner = static_cast<ThreadId>(r % 2);
            g.maxWidth = decodeWidth_;
        } else {
            const ThreadId high = prioP_ > prioS_ ? 0 : 1;
            if (r % static_cast<Cycle>(window_) <
                static_cast<Cycle>(window_ - 1)) {
                g.owner = high;
                g.maxWidth = decodeWidth_;
            } else {
                g.owner = static_cast<ThreadId>(1 - high);
                g.maxWidth = minorityWidth_;
            }
        }
        return g;
      default:
        panic("grantFor: bad mode %d", static_cast<int>(mode_));
    }
}

} // namespace p5
