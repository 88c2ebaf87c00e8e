/**
 * @file
 * Bimodal branch history table.
 *
 * POWER5's branch prediction hardware (BHT) is shared between the two
 * hardware threads of a core; p5sim models it as a single table of 2-bit
 * saturating counters indexed by the synthetic PC. A perfectly regular
 * branch (the paper's br_hit) trains to ~100% accuracy; a random one
 * (br_miss) stays near 50%.
 */

#ifndef P5SIM_BRANCH_BHT_HH
#define P5SIM_BRANCH_BHT_HH

#include <cstdint>
#include <vector>

#include "common/annotate.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace p5 {

/** BHT configuration. */
struct P5_CONFIG_STRUCT BhtParams
{
    int entries = 16384; ///< number of 2-bit counters (power of two)
};

/** Shared bimodal predictor. */
class Bht
{
  public:
    explicit Bht(const BhtParams &params);

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const;

    /** Train with the actual outcome; returns the pre-update prediction. */
    bool update(Addr pc, bool taken);

    /** Reset all counters to weakly not-taken. */
    void reset();

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t correct() const { return correct_.value(); }
    std::uint64_t mispredicts() const { return mispredicts_.value(); }

    /** Fraction of lookups predicted correctly. */
    double accuracy() const;

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint body (ckpt_state.cc): the counter table and prediction
     * stats. On restore the table size must match.
     */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    std::size_t indexOf(Addr pc) const;

    std::vector<std::uint8_t> counters_;
    mutable Counter lookups_;
    Counter correct_;
    Counter mispredicts_;
};

} // namespace p5

#endif // P5SIM_BRANCH_BHT_HH
