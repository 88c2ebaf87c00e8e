/**
 * @file
 * The FFT -> LU software pipeline of the paper's execution-time case
 * study (Sec. 5.4.1, Table 4).
 *
 * One thread runs an FFT over the next input while the sibling applies
 * an LU decomposition to the previous FFT's output; an iteration barrier
 * separates pipeline stages. The LU stage is much shorter, so it idles
 * at the barrier (the real application blocks in MPI receive, putting
 * the core in ST mode) — raising the FFT's priority shortens the
 * iteration until over-prioritization inverts the imbalance.
 */

#ifndef P5SIM_WORKLOADS_PIPELINE_APP_HH
#define P5SIM_WORKLOADS_PIPELINE_APP_HH

#include <functional>

#include "core/smt_core.hh"
#include "program/program.hh"

namespace p5 {

/** Pipeline configuration. */
struct PipelineParams
{
    /** Priorities of the FFT (producer) and LU (consumer) threads. */
    int prioFft = default_priority;
    int prioLu = default_priority;

    /** Measured pipeline iterations (after one warm-up iteration). */
    int iterations = 6;

    /** Work multiplier for both stages. */
    double scale = 1.0;

    /** Cycle guard per iteration. */
    Cycle maxCyclesPerIteration = 50'000'000;
};

/** Timing of one run. */
struct PipelineResult
{
    /** Average busy time of each stage per iteration, in cycles. */
    double fftCycles = 0.0;
    double luCycles = 0.0;

    /** Average barrier-to-barrier iteration time, in cycles. */
    double iterationCycles = 0.0;

    bool hitCycleLimit = false;
};

/** Build the FFT stage program (one execution = one iteration). */
SyntheticProgram makeFftStage(double scale = 1.0);

/** Build the LU stage program (one execution = one iteration). */
SyntheticProgram makeLuStage(double scale = 1.0);

/** The pipeline driver. */
class PipelineApp
{
  public:
    explicit PipelineApp(const PipelineParams &params);

    /**
     * Run the two stages in SMT mode under the configured priorities.
     * A stage that reaches the barrier first is put to sleep (its
     * hardware thread shuts off, leaving the sibling in ST mode) until
     * the other arrives. @p inspect, when set, sees the core at the end.
     */
    PipelineResult
    runSmt(const CoreParams &core_params,
           const std::function<void(const SmtCore &)> &inspect = {}) const;

    /**
     * Reference: run the two stages back-to-back on one thread
     * (the paper's "single-thread mode" row of Table 4), each on its
     * own core. @p inspect, when set, sees each stage's core at the end.
     */
    PipelineResult runSingleThread(
        const CoreParams &core_params,
        const std::function<void(const SmtCore &)> &inspect = {}) const;

    const PipelineParams &params() const { return params_; }

  private:
    PipelineParams params_;
};

} // namespace p5

#endif // P5SIM_WORKLOADS_PIPELINE_APP_HH
