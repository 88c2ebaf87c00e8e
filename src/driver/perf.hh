/**
 * @file
 * `p5sim perf`: the simulator's self-performance report. Each case is
 * one A/B comparison of two ways to compute the same measurement (fast-
 * forward off vs on, generator vs trace replay, cold vs forked warm-up),
 * timed by abCase(), which also checks the two arms' stats identical.
 */

#ifndef P5SIM_DRIVER_PERF_HH
#define P5SIM_DRIVER_PERF_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace p5 {

class JsonWriter;

/** What one run of an A/B arm computed, and how long it took. */
struct ArmRun
{
    double wallMs = 0; ///< set by abCase(), not by the arm
    std::uint64_t simCycles = 0;
    std::uint64_t instrs = 0; ///< committed (FAME: accounted)
    double ipc = 0;
    std::vector<std::uint64_t> signature; ///< stats both arms must share
    /** Cycles the arm's cores ticked (simulated minus idle-skipped
     *  and period-jumped) and the fast-forward probes they made:
     *  deterministic work counts, gated exactly where wall clock
     *  cannot be. */
    std::uint64_t tickedCycles = 0;
    std::uint64_t ffProbes = 0;
};

/**
 * Runs @p work under abCase()'s clock: an arm passes its timed region
 * through this, so per-run setup and teardown stay untimed.
 */
using TimeWork = std::function<void(const std::function<void()> &work)>;

/** One arm of an A/B case: runs the workload once. */
using Arm = std::function<ArmRun(const TimeWork &timed)>;

/** std::chrono::steady_clock in milliseconds; abCase()'s clock. */
double steadyWallMs();

/** Outcome of abCase(). */
struct AbResult
{
    ArmRun a, b; ///< each arm's fastest repetition

    /** Median over repetitions of a.wallMs / b.wallMs within each. */
    double speedup = 0;

    /**
     * The standard error of that median, estimated from the
     * interquartile range of the repetitions' ratios. It shrinks with
     * the square root of the repetitions.
     */
    double stdErr = 0;

    /** Every repetition of both arms produced the same signature. */
    bool identicalStats = true;
};

/**
 * The report's one timing protocol. Run @p arm_b once and discard it,
 * so first-touch costs stay out of the timings; then @p reps >= 1
 * repetitions of both arms back to back, A first on even repetitions
 * and B first on odd ones, because turbo and thermal state favour
 * whichever runs first. Prints "NAME: A ms -> B ms (SPEEDUPx)" to
 * @p err, with "  STATS DEVIATE" appended when the signatures differ.
 */
AbResult abCase(const std::string &name, const Arm &arm_a,
                const Arm &arm_b, int reps, std::ostream &err,
                const std::function<double()> &clock = steadyWallMs);

/**
 * Write the report's "build" object: compiler id and version, build
 * type and whether the library was built with interprocedural
 * optimisation. Absolute throughput is comparable only between reports
 * whose build objects match.
 */
void writeBuildInfo(JsonWriter &w);

} // namespace p5

#endif // P5SIM_DRIVER_PERF_HH
