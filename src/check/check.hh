/**
 * @file
 * p5check: runtime verification of microarchitectural invariants.
 *
 * An InvariantChecker observes one SmtCore at cycle boundaries and
 * cross-checks the model's bookkeeping against independently recomputed
 * expectations (the paper's R-1:1 decode formula, GCT conservation,
 * issue/FU flow conservation, LMQ/cache counter coherence, committed-IPC
 * accounting). Checkers are registered with a core's CheckRegistry; a
 * core without a registry pays a single null-pointer test per cycle.
 *
 * Building with -DP5SIM_CHECK=ON installs the standard checker suite on
 * every core and makes violations fatal; without it, checkers are only
 * active where tests register them explicitly.
 */

#ifndef P5SIM_CHECK_CHECK_HH
#define P5SIM_CHECK_CHECK_HH

#include <memory>
#include <string>
#include <vector>

#include "common/annotate.hh"
#include "common/types.hh"

namespace p5 {

class SmtCore;

namespace check {

class CheckRegistry;

/** A detected invariant violation, with enough context to debug it. */
struct CheckFailure
{
    Cycle cycle = 0;

    /** Offending hardware thread, or -1 when not thread-specific. */
    ThreadId tid = -1;

    /** Name of the checker that fired. */
    std::string checker;

    /** The invariant that was violated (short identifier). */
    std::string invariant;

    /** What the checker expected to observe. */
    std::string expected;

    /** What the model actually held. */
    std::string actual;

    /** One-line human-readable rendering. */
    std::string describe() const;
};

/**
 * Base class of all invariant checkers.
 *
 * onCycle() runs at the end of every SmtCore::tick(), after all pipeline
 * stages, with the cycle number that just executed. Checkers that track
 * counter deltas must treat their first observation as a baseline (cores
 * may have run before the checker was attached).
 */
class InvariantChecker
{
  public:
    virtual ~InvariantChecker() = default;

    /** Stable name used in CheckFailure records and tests. */
    virtual const char *name() const = 0;

    /** Inspect @p core after cycle @p cycle has fully executed. */
    virtual void onCycle(const SmtCore &core, Cycle cycle) = 0;

    /**
     * The core fast-forwarded from cycle @p from to @p to: cycles
     * [from, to) were verified idle and skipped in one jump, with
     * counters advanced arithmetically, and the next onCycle() call
     * will be for cycle @p to. The default is a no-op, correct for any
     * checker whose tracked quantities are constant while the core is
     * idle (all delta-based checkers: their spanning deltas stay
     * consistent). Checkers with per-cycle expectations (the decode-
     * slot R-window) must override this to verify the bulk deltas and
     * rebuild their rolling state.
     */
    virtual void
    onSkip(const SmtCore &core, Cycle from, Cycle to)
    {
        (void)core;
        (void)from;
        (void)to;
    }

    /**
     * Forget the baseline: the next observation primes afresh, as for
     * a checker attached mid-run. A period jump (SmtCore::jumpPeriods)
     * moves the counters by whole periods at once, so the deltas across
     * it mean nothing cycle by cycle.
     */
    void unprime() { primed_ = false; }

  protected:
    /** Whether the delta-based checks hold a baseline observation. */
    bool primed_ = false;

    /** Record a violation with the owning registry. */
    void fail(Cycle cycle, ThreadId tid, std::string invariant,
              std::string expected, std::string actual);

  private:
    friend class CheckRegistry;
    CheckRegistry *registry_ = nullptr;
};

/**
 * Owns a core's checkers and collects their failures.
 *
 * In fatal mode (the default of checked builds) the first violation
 * panics; in collect mode failures are recorded (up to a cap) and
 * surfaced through log.hh as checkfail() messages, so tests can corrupt
 * state on purpose and assert that the right checker fired.
 */
class CheckRegistry
{
  public:
    explicit CheckRegistry(bool fatal = false) : fatal_(fatal) {}

    CheckRegistry(const CheckRegistry &) = delete;
    CheckRegistry &operator=(const CheckRegistry &) = delete;

    /** Register @p checker; the registry takes ownership. */
    void add(std::unique_ptr<InvariantChecker> checker);

    // P5_ALLOW(hot_path_no_alloc): checkers are a debug-mode facility —
    // collect mode stores failure records (capped), and individual
    // checkers keep growable shadow state. Release runs attach no
    // checkers, so the busy path never reaches these.
    /** Run every checker against @p core for cycle @p cycle. */
    P5_ALLOW(hot_path_no_alloc)
    void onCycle(const SmtCore &core, Cycle cycle);

    /** Notify every checker of a fast-forward skip over [from, to). */
    P5_ALLOW(hot_path_no_alloc)
    void onSkip(const SmtCore &core, Cycle from, Cycle to);

    /** Violations panic (true) or are collected (false). */
    void setFatal(bool fatal) { fatal_ = fatal; }
    bool fatal() const { return fatal_; }

    /** True iff a checker named @p name is registered. */
    bool has(const std::string &name) const;

    std::size_t numCheckers() const { return checkers_.size(); }

    /** Collected violations (collect mode; capped). */
    const std::vector<CheckFailure> &failures() const { return failures_; }

    /** Total violations seen, including those beyond the storage cap. */
    std::uint64_t failureCount() const { return failureCount_; }

    /** Cycles onCycle() has been driven for (observability in tests). */
    std::uint64_t cyclesChecked() const { return cyclesChecked_; }

    /** Cycles crossed via onSkip() fast-forward jumps. */
    std::uint64_t cyclesSkipped() const { return cyclesSkipped_; }

    void clearFailures();

    /** InvariantChecker::unprime() every checker (after a jump). */
    void reprime();

    /** Failures kept in failures(); further ones only count. */
    static constexpr std::size_t max_stored_failures = 256;

  private:
    friend class InvariantChecker;
    void report(CheckFailure f);

    std::vector<std::unique_ptr<InvariantChecker>> checkers_;
    std::vector<CheckFailure> failures_;
    std::uint64_t failureCount_ = 0;
    std::uint64_t cyclesChecked_ = 0;
    std::uint64_t cyclesSkipped_ = 0;
    bool fatal_ = false;
};

/**
 * Register the standard five-checker suite on @p core's registry:
 * decode-slot conformance, GCT conservation, flow conservation,
 * memory-counter coherence and IPC accounting.
 */
void installStandardCheckers(SmtCore &core);

} // namespace check
} // namespace p5

#endif // P5SIM_CHECK_CHECK_HH
