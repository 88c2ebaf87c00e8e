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

void
CoreParams::validate() const
{
    if (decodeWidth <= 0 || decodeWidth > 8)
        fatal("decodeWidth %d out of range", decodeWidth);
    if (minoritySlotWidth <= 0 || minoritySlotWidth > decodeWidth)
        fatal("minoritySlotWidth must be in [1, decodeWidth]");
    if (groupSize <= 0 || groupSize > decodeWidth)
        fatal("groupSize %d must be in [1, decodeWidth]", groupSize);
    if (gctGroups <= 1)
        fatal("gctGroups %d too small", gctGroups);
    if (lmqEntries <= 0)
        fatal("lmqEntries %d must be positive", lmqEntries);
    if (mispredictPenalty < 0)
        fatal("mispredictPenalty must be >= 0");
    for (int fc = 0; fc < static_cast<int>(FuClass::None); ++fc)
        if (fuCount[fc] <= 0)
            fatal("fuCount[%s] must be positive",
                  fuClassName(static_cast<FuClass>(fc)));
    if (balancer.gctShareThreshold <= 0.0 ||
        balancer.gctShareThreshold > 1.0)
        fatal("balancer.gctShareThreshold must be in (0, 1]");
    if (balancer.lmqThreshold <= 0 || balancer.lmqThreshold > lmqEntries)
        fatal("balancer.lmqThreshold must be in [1, lmqEntries]");
}

} // namespace p5
