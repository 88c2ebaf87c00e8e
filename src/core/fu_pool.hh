/**
 * @file
 * Functional-unit pool.
 *
 * Tracks per-unit busy-until cycles so that partially pipelined operations
 * (integer multiply, divides) block their unit for several cycles, as on
 * the real FXU/FPU — one of the effects that keeps cpu_int's ST IPC near 1
 * despite two fixed-point units.
 */

#ifndef P5SIM_CORE_FU_POOL_HH
#define P5SIM_CORE_FU_POOL_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/op_class.hh"

namespace p5 {

/** Pool of functional units, grouped by FuClass. */
class FuPool
{
  public:
    /** @param counts units per FuClass (index by FuClass). */
    explicit FuPool(const int counts[static_cast<int>(
        FuClass::NumFuClasses)]);

    /**
     * Try to acquire a unit of class @p fc at cycle @p now, holding it
     * for @p occupancy cycles.
     *
     * @return true on success. FuClass::None always succeeds (nops do
     *         not occupy a unit).
     */
    bool tryAcquire(FuClass fc, Cycle now, int occupancy);

    /**
     * The first unit of class @p fc free at cycle @p now, or -1 when
     * every unit is busy. @pre fc != FuClass::None.
     */
    int
    freeUnit(FuClass fc, Cycle now) const
    {
        const auto &units = busyUntil_[static_cast<int>(fc)];
        for (std::size_t u = 0; u < units.size(); ++u)
            if (units[u] <= now)
                return static_cast<int>(u);
        return -1;
    }

    /**
     * Hold @p unit (from freeUnit()) of class @p fc for @p occupancy
     * cycles from @p now, and count the acquisition.
     */
    void
    occupy(FuClass fc, int unit, Cycle now, int occupancy)
    {
        busyUntil_[static_cast<int>(fc)][static_cast<std::size_t>(unit)] =
            now + static_cast<Cycle>(occupancy);
        ++acquisitions_[static_cast<int>(fc)];
    }

    /** Free units of class @p fc at cycle @p now. */
    int freeUnits(FuClass fc, Cycle now) const;

    /**
     * Earliest cycle at which a unit of class @p fc is (or becomes)
     * free: @p now itself when one is already free, never_cycle when
     * the class has no units at all. Fast-forward next-event contract:
     * freeUnits(fc, c) == 0 for all c in [now, nextFreeCycle(fc, now)).
     */
    Cycle nextFreeCycle(FuClass fc, Cycle now) const;

    int unitCount(FuClass fc) const;

    /** Release every unit (used between experiment runs). */
    void reset();

    std::uint64_t
    acquisitions(FuClass fc) const
    {
        return acquisitions_[static_cast<int>(fc)].value();
    }

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint body (ckpt_state.cc): per-unit busy-until cycles and
     * counters. On restore the unit counts must match.
     */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    std::vector<Cycle> busyUntil_[static_cast<int>(FuClass::NumFuClasses)];
    Counter acquisitions_[static_cast<int>(FuClass::NumFuClasses)];
};

} // namespace p5

#endif // P5SIM_CORE_FU_POOL_HH
