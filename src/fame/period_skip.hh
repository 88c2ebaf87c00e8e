/**
 * @file
 * Finding a recurring period of a core's state during FAME measurement
 * (DESIGN §7 "Period skip").
 *
 * Instruction sources are pure functions of the instruction index, so
 * once the relativised state of the whole core (StateRelativiser) at
 * one execution boundary equals that at an earlier one, P cycles
 * before, every later period of P cycles is the same: each counter
 * gains the same delta per period, and each thread's executions retire
 * at the same offsets. PeriodDetector finds such a pair of boundaries.
 *
 * It watches the execution boundaries of one reference thread (the
 * lower-priority one) in steps of the reference source's own period,
 * the only spacing at which the reference stream's phase recurs. Step
 * 0 is the measurement's first reference boundary. Anchors (a snapshot
 * of the core, its phases and its poll view) sit at step 0 and at every
 * power-of-two step, as in Brent's cycle detection: the step-0 anchor
 * catches a state that recurs right after the warm-up, and the ladder
 * one that sets in later (DESIGN §7 bounds how much later it confirms).
 * The step-0 anchor and the two newest others are kept. At every step the
 * core's snapshot (boundary B) is compared field for field with each
 * anchor whose phases (each thread's stream phase and the decode-slot
 * phase, which cost no snapshot) equal B's, newest first; the first
 * equal pair confirms. A hash never confirms on its own. From step 0 on
 * every thread's execution boundaries are logged, so that after a
 * confirmed period viewAt() gives what a FAME poll would read at any
 * later cycle, in closed form.
 */

#ifndef P5SIM_FAME_PERIOD_SKIP_HH
#define P5SIM_FAME_PERIOD_SKIP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "ckpt/state_walk.hh"
#include "common/types.hh"
#include "core/smt_core.hh"

namespace p5 {

/** What a FAME poll reads of a core, per hardware thread. */
struct PollView
{
    std::array<std::uint64_t, num_hw_threads> execs{};
    std::array<Cycle, num_hw_threads> last{}; ///< last execution's end

    bool operator==(const PollView &) const = default;
};

/** The PollView of @p core as it stands. */
PollView pollViewOf(const SmtCore &core);

/** Finds an exact recurrence of a core's state at execution boundaries. */
class PeriodDetector
{
  public:
    /** Source period, in executions, beyond which the detector stays
     *  inactive. */
    static constexpr std::uint64_t max_source_period = 512;

    /**
     * @param enable false keeps the detector inactive (a chunk hook
     *        observes the run, so every cycle must be simulated); it is
     *        also inactive when !core.periodSkipAllowed() and when a
     *        source's period exceeds max_source_period.
     */
    PeriodDetector(const SmtCore &core, bool enable);
    PeriodDetector(const PeriodDetector &) = delete;
    PeriodDetector &operator=(const PeriodDetector &) = delete;

    bool active() const { return active_; }

    /** Stop predicate: some thread completed an execution since the
     *  last onBoundary(). Asked every cycle, so it stays inline. */
    bool
    boundary(const SmtCore &core) const
    {
        for (ThreadId t = 0; t < num_hw_threads; ++t)
            if (core.executionsOf(t) != seen_[static_cast<std::size_t>(t)])
                return true;
        return false;
    }

    /**
     * The core stopped at a boundary (boundary() held). Returns true
     * when a period is confirmed; a(), b() and viewAt() then describe
     * it, and the detector stays quiet until stop().
     */
    bool onBoundary(const SmtCore &core);

    /** Deactivate for good (the confirmed period was used). */
    void stop() { active_ = false; }

    const StateSnapshot &a() const { return found_->state; }
    const StateSnapshot &b() const { return b_; }
    Cycle periodCycles() const { return b().cycle - a().cycle; }

    /** The PollView at cycle @p c >= b().cycle if the core ran on. */
    PollView viewAt(Cycle c) const;

  private:
    /** One thread's execution boundary after the step-0 anchor. */
    struct Event
    {
        Cycle cycle;
        std::uint64_t execs;
        Cycle last;
    };

    /**
     * Each thread's stream position modulo its source's period, and the
     * decode-slot phase: equal at two boundaries of a recurrence, and
     * cheap to read, so a snapshot is taken only where they match.
     */
    using PhaseKey = std::array<std::uint64_t, num_hw_threads + 1>;
    static PhaseKey phaseOf(const SmtCore &core);

    /** A boundary that later steps are compared with. */
    struct Anchor
    {
        StateSnapshot state;
        PhaseKey key{};
        PollView view{};
        /** Per thread, its first event in log_ after this boundary. */
        std::array<std::size_t, num_hw_threads> logFrom{};
    };

    /** Anchors kept: the step-0 one and the two newest others. */
    static constexpr std::size_t max_anchors = 3;

    bool active_ = false;
    ThreadId ref_ = 0;
    std::uint64_t refPeriod_ = 1; ///< the reference source's, executions
    std::array<std::uint64_t, num_hw_threads> seen_{};
    std::uint64_t refBoundaries_ = 0; ///< after the step-0 anchor

    /** Oldest first: step 0, then the newest power-of-two steps. */
    std::vector<Anchor> anchors_;
    std::array<std::vector<Event>, num_hw_threads> log_;
    const Anchor *found_ = nullptr;
    StateSnapshot b_;
    PollView bView_{};
};

} // namespace p5

#endif // P5SIM_FAME_PERIOD_SKIP_HH
