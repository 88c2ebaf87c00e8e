#include "core/fu_pool.hh"

#include "common/log.hh"

namespace p5 {

FuPool::FuPool(const int counts[static_cast<int>(FuClass::NumFuClasses)])
{
    for (int fc = 0; fc < static_cast<int>(FuClass::None); ++fc) {
        if (counts[fc] < 0)
            fatal("negative FU count for %s",
                  fuClassName(static_cast<FuClass>(fc)));
        busyUntil_[fc].assign(static_cast<std::size_t>(counts[fc]), 0);
    }
}

bool
FuPool::tryAcquire(FuClass fc, Cycle now, int occupancy)
{
    if (fc == FuClass::None) {
        ++acquisitions_[static_cast<int>(fc)];
        return true;
    }
    const int unit = freeUnit(fc, now);
    if (unit < 0)
        return false;
    occupy(fc, unit, now, occupancy);
    return true;
}

int
FuPool::freeUnits(FuClass fc, Cycle now) const
{
    if (fc == FuClass::None)
        return 1;
    int n = 0;
    for (auto until : busyUntil_[static_cast<int>(fc)])
        if (until <= now)
            ++n;
    return n;
}

Cycle
FuPool::nextFreeCycle(FuClass fc, Cycle now) const
{
    if (fc == FuClass::None)
        return now;
    Cycle next = never_cycle;
    for (auto until : busyUntil_[static_cast<int>(fc)]) {
        if (until <= now)
            return now;
        if (until < next)
            next = until;
    }
    return next;
}

int
FuPool::unitCount(FuClass fc) const
{
    if (fc == FuClass::None)
        return 0;
    return static_cast<int>(busyUntil_[static_cast<int>(fc)].size());
}

void
FuPool::reset()
{
    for (auto &units : busyUntil_)
        for (auto &until : units)
            until = 0;
}

void
FuPool::registerStats(StatGroup &group) const
{
    for (int fc = 0; fc < static_cast<int>(FuClass::NumFuClasses); ++fc) {
        group.registerCounter(std::string("fu.") +
                                  fuClassName(static_cast<FuClass>(fc)) +
                                  ".acquisitions",
                              &acquisitions_[fc]);
    }
}

} // namespace p5
