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
 * lower-priority one), and two searches run side by side, each holding
 * a snapshot of the core at its boundary A. One anchors A at the
 * measurement's first reference boundary and steps by the reference
 * source's own period, so a state that recurs right after the warm-up
 * is found within one period of it. The other anchors A where a cheap
 * filter proposes: the filter digests, per boundary, the cycles and
 * every stat counter's change since the previous boundary, and proposes
 * p boundaries once min_run boundaries in a row (all of them for a
 * smaller p) equal the one p back; its step is p rounded up to the
 * reference source's period. At every step after A a search compares
 * each thread's stream phase and the decode-slot phase with A's, which
 * costs no snapshot; where they match it snapshots the core (boundary
 * B, one snapshot shared by both searches) and compares the two
 * snapshots field for field. A hash never confirms on its own. Phases
 * that cycle without returning to A's, or a B whose state differs from
 * A's (the caches still warming), move A on; a search that runs too
 * long fails (the filter's backs off and waits for its next proposal).
 * The first pair either search confirms wins. Meanwhile each search
 * logs every thread's execution boundaries after its A, so that after a
 * confirmed period viewAt() gives what a FAME poll would read at any
 * later cycle, in closed form.
 */

#ifndef P5SIM_FAME_PERIOD_SKIP_HH
#define P5SIM_FAME_PERIOD_SKIP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "ckpt/state_walk.hh"
#include "common/stats.hh"
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
    /** Longest period the filter proposes, in reference boundaries. */
    static constexpr std::size_t max_period = 512;

    /** Source period, in executions, beyond which the detector stays
     *  inactive. */
    static constexpr std::uint64_t max_source_period = 512;

    /**
     * Boundaries in a row that must match the one p back before the
     * filter proposes p (all p of them when p is smaller).
     */
    static constexpr std::size_t min_run = 16;

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

    const StateSnapshot &a() const { return found_->a; }
    const StateSnapshot &b() const { return b_; }
    Cycle periodCycles() const { return b().cycle - a().cycle; }

    /** The PollView at cycle @p c >= b().cycle if the core ran on. */
    PollView viewAt(Cycle c) const;

  private:
    /** One thread's execution boundary inside the logged period. */
    struct Event
    {
        Cycle offset;            ///< cycle - a().cycle, in (0, P]
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

    /** One search for a recurrence from its boundary A. */
    struct Search
    {
        explicit Search(std::size_t max_steps) : maxSteps(max_steps) {}

        /** Steps (distinct phases) it waits, at most, for A's phases
         *  to recur. */
        const std::size_t maxSteps;
        std::uint64_t step = 1; ///< reference boundaries per step
        std::uint64_t since = 0; ///< reference boundaries since A
        std::vector<PhaseKey> keys; ///< per step since A, A's first
        std::uint32_t rolls = 0;
        StateSnapshot a;
        PollView view{}; ///< at A
        std::array<std::vector<Event>, num_hw_threads> log;

        bool searching() const { return !keys.empty(); }
    };

    /** Times a search moves A on, at most, before it fails. */
    static constexpr std::uint32_t max_rolls = 8;

    /** Digest the reference boundary; return a proposed period or 0. */
    std::size_t filter(const SmtCore &core);

    /** The core's snapshot at the reference boundary it stopped at,
     *  taken into b_ once per boundary. */
    const StateSnapshot &here(const SmtCore &core);

    /** Start @p s (A at this boundary) with a step of @p step. */
    void startAt(Search &s, std::uint64_t step, const SmtCore &core);

    /** One reference boundary of @p s; true when it confirms. */
    bool advance(Search &s, const SmtCore &core);

    /** Give up search @p s. */
    void fail(Search &s);

    bool active_ = false;
    ThreadId ref_ = 0;
    std::uint64_t refPeriod_ = 1; ///< the reference source's, executions
    std::array<std::uint64_t, num_hw_threads> seen_{};

    // Filter: per-boundary digests (a ring of 2 * max_period) and, per
    // candidate p, how many boundaries in a row matched the one p back.
    std::vector<const Counter *> counters_;
    std::vector<std::uint64_t> prevCounters_;
    Cycle prevCycle_ = 0;
    std::uint64_t boundaries_ = 0;
    std::array<std::uint64_t, 2 * max_period> digests_{};
    std::array<std::uint32_t, max_period + 1> run_{};
    std::uint64_t cooldownUntil_ = 0;
    std::uint32_t failures_ = 0;

    /**
     * A at the measurement's first reference boundary, stepping by the
     * reference period, so it may take up to max_period steps to span a
     * period; and A where the filter proposed, whose step is already the
     * proposed period. At most three snapshots are alive: the two A's
     * and b_.
     */
    Search first_{max_period};
    Search filtered_{32};
    const Search *found_ = nullptr;
    StateSnapshot b_;
    PollView bView_{};
    bool bTaken_ = false; ///< b_ holds this boundary's snapshot
};

} // namespace p5

#endif // P5SIM_FAME_PERIOD_SKIP_HH
