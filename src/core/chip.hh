/**
 * @file
 * N-core POWER5-like chip: SMT cores sharing the L2/L3/DRAM backside.
 *
 * The paper's methodology pins all OS noise (user-land daemons, IRQs) to
 * the first core and measures on the second; the Chip class makes that
 * setup expressible — one core can run a noise workload while another
 * runs the experiment, contending only below L1. Beyond the paper's
 * dual-core part, the core count is a ChipParams knob (the SYNPA-style
 * allocation studies in src/sched/, see PAPERS.md, schedule M runnable
 * threads onto N cores x 2 hardware contexts).
 *
 * Lockstep contract: every Chip entry point (tick(), run()) advances
 * all cores together, so all cores always agree on the current cycle.
 * This is not cosmetic — cores interact through the shared backside
 * (DRAM bandwidth gates, L2/L3 service gaps), whose state depends on
 * the global arrival order of accesses; letting one core run ahead
 * would reorder arrivals and change results. Driving an individual
 * core(i).run() directly breaks the contract; cycle() asserts
 * agreement in debug builds to catch exactly that.
 */

#ifndef P5SIM_CORE_CHIP_HH
#define P5SIM_CORE_CHIP_HH

#include <memory>
#include <vector>

#include "core/smt_core.hh"

namespace p5 {

/** Upper bound on cores per chip (CoreParams::coreId is 0..7). */
constexpr int max_cores = 8;

/** Chip-level configuration. */
struct ChipParams
{
    /** Cores on the chip, 1..max_cores. */
    int numCores = 2;

    /** Per-core base configuration; coreId is set per core. */
    CoreParams core;

    /** fatal() on out-of-range values (includes core.validate()). */
    void validate() const;
};

/** The N-core chip. */
class Chip
{
  public:
    explicit Chip(const ChipParams &params);

    /** Dual-core chip from a per-core base (the paper's setup). */
    explicit Chip(const CoreParams &base);

    int numCores() const { return static_cast<int>(cores_.size()); }

    SmtCore &core(int idx);
    const SmtCore &core(int idx) const;

    MemBackside &backside() { return *backside_; }

    /** Advance all cores one cycle, in core-index order. */
    P5_HOT_PATH void tick();

    /**
     * Advance all cores @p cycles cycles in lockstep: SmtCore::advance()
     * over every core, with a fresh armed probe streak. Stretches where
     * *every* core is provably idle are skipped in one joint jump; a
     * joint skip is the only safe kind, since a core with work may
     * touch the shared backside, whose first-come-first-served gates
     * make results depend on the global order of accesses.
     */
    P5_HOT_PATH void run(Cycle cycles);

    /**
     * Current cycle of the chip. All cores agree by the lockstep
     * contract above; debug builds assert it (a mismatch means some
     * core was advanced behind the chip's back).
     */
    P5_HOT_PATH Cycle cycle() const;

  private:
    std::unique_ptr<MemBackside> backside_;
    std::vector<std::unique_ptr<SmtCore>> cores_;

    /** Scratch gates for the joint fast-forward (one per core). */
    std::vector<SmtCore::DecodeGate> gates_;
};

} // namespace p5

#endif // P5SIM_CORE_CHIP_HH
