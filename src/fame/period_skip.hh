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
 * lower-priority one). A cheap filter digests, per boundary, the cycles
 * and every stat counter's change since the previous boundary, and
 * proposes p boundaries once min_run boundaries in a row (all of them
 * for a smaller p) equal the one p back. Only then does it snapshot
 * the core (boundary A). Every step after A (p rounded up to the
 * reference source's own period) it compares each thread's stream
 * phase and the decode-slot phase with A's, which costs no snapshot;
 * where they match it snapshots again (boundary B) and compares the two
 * snapshots field for field. A hash never confirms on its own. Phases
 * that cycle without returning to A's, or a B whose state differs from
 * A's (the caches still warming), move A on; a search that runs too
 * long fails and backs off. Meanwhile it logs every thread's execution
 * boundaries after A, so that after a confirmed period viewAt() gives
 * what a FAME poll would read at any later cycle, in closed form.
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

    const StateSnapshot &a() const { return snaps_[0]; }
    const StateSnapshot &b() const { return snaps_[1]; }
    Cycle periodCycles() const { return b().cycle - a().cycle; }

    /** The PollView at cycle @p c >= b().cycle if the core ran on. */
    PollView viewAt(Cycle c) const;

  private:
    enum class Phase : std::uint8_t
    {
        Filter,  ///< digesting boundaries, no snapshot held
        Confirm, ///< snapshot A held, logging towards B
        Found    ///< a() and b() confirmed one period apart
    };

    /** One thread's execution boundary inside the logged period. */
    struct Event
    {
        Cycle offset;            ///< cycle - a().cycle, in (0, P]
        std::uint64_t execs;
        Cycle last;
    };

    /**
     * Steps (the proposal, rounded to the reference period) a
     * confirmation waits, at most, for A's phases to recur.
     */
    static constexpr std::size_t max_multiples = 32;

    /** Times a confirmation moves A on, at most, before it fails. */
    static constexpr std::uint32_t max_rolls = 8;

    /**
     * Each thread's stream position modulo its source's period, and the
     * decode-slot phase: equal at two boundaries of a recurrence, and
     * cheap to read, so a snapshot is taken only where they match.
     */
    using PhaseKey = std::array<std::uint64_t, num_hw_threads + 1>;
    static PhaseKey phaseOf(const SmtCore &core);

    /** Digest the reference boundary; return a proposed period or 0. */
    std::size_t filter(const SmtCore &core);

    /** Snapshot A at the boundary the core stopped at, viewing @p now. */
    void startAt(const SmtCore &core, const PollView &now);

    /** Give up the search or confirmation in progress. */
    void fail();

    bool active_ = false;
    Phase phase_ = Phase::Filter;
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

    // Confirmation: the proposal rounded to the reference period
    // (step_), reference boundaries since A, the phases at each step
    // since A (A's first), the two snapshots and views, and every
    // boundary between them.
    std::uint64_t step_ = 1;
    std::uint64_t since_ = 0;
    std::vector<PhaseKey> keys_;
    std::uint32_t rolls_ = 0;
    std::array<StateSnapshot, 2> snaps_;
    std::array<PollView, 2> views_{};
    std::array<std::vector<Event>, num_hw_threads> log_;
};

} // namespace p5

#endif // P5SIM_FAME_PERIOD_SKIP_HH
