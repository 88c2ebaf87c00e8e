#include "core/decode_arbiter.hh"

namespace p5 {

DecodeArbiter::DecodeArbiter(int decode_width, int minority_width,
                             bool work_conserving)
    : allocator_(decode_width, minority_width),
      workConserving_(work_conserving)
{
}

SlotGrant
DecodeArbiter::decide(Cycle now,
                      const std::array<bool, num_hw_threads> &can_use)
{
    SlotGrant g = allocator_.grantAt(now);
    if (g.owner < 0)
        return g;

    const auto owner = static_cast<size_t>(g.owner);
    const ThreadId to = wouldGrant(now, can_use);
    if (to == g.owner) {
        ++granted_[owner];
        return g;
    }
    ++forfeited_[owner];
    if (to >= 0)
        ++reassigned_[static_cast<size_t>(to)];
    else
        g.maxWidth = 0;
    g.owner = to;
    return g;
}

void
DecodeArbiter::chargeForfeits(Cycle begin, Cycle end)
{
    const auto owned = allocator_.ownedSlotsInRange(begin, end);
    for (size_t ti = 0; ti < num_hw_threads; ++ti)
        forfeited_[ti] += owned[ti];
}

void
DecodeArbiter::registerStats(StatGroup &group) const
{
    for (int t = 0; t < num_hw_threads; ++t) {
        auto ts = std::to_string(t);
        group.registerCounter("decode.thread" + ts + ".slotsGranted",
                              &granted_[static_cast<size_t>(t)]);
        group.registerCounter("decode.thread" + ts + ".slotsForfeited",
                              &forfeited_[static_cast<size_t>(t)]);
        group.registerCounter("decode.thread" + ts + ".slotsReassigned",
                              &reassigned_[static_cast<size_t>(t)]);
    }
}

} // namespace p5
