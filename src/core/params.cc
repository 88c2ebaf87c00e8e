#include "core/params.hh"

#include "common/log.hh"

namespace p5 {

int
CoreParams::fuOccupancy(OpClass oc) const
{
    // POWER5's FXU multiply and both divides are not fully pipelined,
    // and stores hold their LSU slot for address generation + data
    // steering, which makes store-heavy loops LS-bandwidth bound.
    switch (oc) {
      case OpClass::IntMul:
        return 3;
      case OpClass::IntDiv:
        return 36;
      case OpClass::FpDiv:
        return 33;
      case OpClass::Store:
        return 2;
      default:
        return 1;
    }
}

std::string
CoreParams::tryValidate() const
{
    using std::to_string;
    if (decodeWidth <= 0 || decodeWidth > 8)
        return "decodeWidth " + to_string(decodeWidth) + " out of range";
    if (minoritySlotWidth <= 0 || minoritySlotWidth > decodeWidth)
        return "minoritySlotWidth must be in [1, decodeWidth]";
    if (groupSize <= 0 || groupSize > decodeWidth)
        return "groupSize " + to_string(groupSize) +
               " must be in [1, decodeWidth]";
    if (gctGroups <= 1)
        return "gctGroups " + to_string(gctGroups) + " too small";
    if (lmqEntries <= 0)
        return "lmqEntries " + to_string(lmqEntries) + " must be positive";
    if (mispredictPenalty < 0)
        return "mispredictPenalty must be >= 0";
    for (int fc = 0; fc < static_cast<int>(FuClass::None); ++fc)
        if (fuCount[fc] <= 0)
            return std::string("fuCount[") +
                   fuClassName(static_cast<FuClass>(fc)) +
                   "] must be positive";
    if (balancer.gctShareThreshold <= 0.0 ||
        balancer.gctShareThreshold > 1.0)
        return "balancer.gctShareThreshold must be in (0, 1]";
    if (balancer.lmqThreshold <= 0 || balancer.lmqThreshold > lmqEntries)
        return "balancer.lmqThreshold must be in [1, lmqEntries]";
    return {};
}

} // namespace p5
