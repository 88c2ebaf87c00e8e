/**
 * @file
 * FAME (FAirly MEasuring Multithreaded Architectures) methodology.
 *
 * Per the paper (Sec. 4.1, after Vera et al. [24][25]): every benchmark
 * in the workload re-executes until each has completed at least a minimum
 * number of repetitions *and* its accumulated average IPC has stabilized
 * to within MAIV (Maximum Allowable IPC Variation, 1% by default). The
 * average execution time of a thread is its total accounted time divided
 * by the number of *complete* repetitions — time in the trailing
 * incomplete repetition is discarded (the paper's Figure 1).
 */

#ifndef P5SIM_FAME_FAME_HH
#define P5SIM_FAME_FAME_HH

#include <array>
#include <string>

#include "core/smt_core.hh"
#include "program/program.hh"

namespace p5 {

/** FAME configuration. */
struct P5_CONFIG_STRUCT FameParams
{
    /** Minimum complete executions per thread (paper: 10 for MAIV 1%). */
    std::uint64_t minRepetitions = 10;

    /** Maximum allowable IPC variation between consecutive checks. */
    double maiv = 0.01;

    /**
     * Warm-up repetitions before the measurement window opens. The
     * warm-up additionally extends itself until each thread's
     * per-repetition IPC has stabilized (caches/predictors trained),
     * which is what lets the measured average approximate steady state.
     */
    std::uint64_t warmupRepetitions = 2;

    /** Relative per-repetition IPC change below which warm-up ends. */
    double warmupTolerance = 0.05;

    /** Hard cycle guard so degenerate configs cannot hang. */
    Cycle maxCycles = 500'000'000;

    /** Simulation chunk between convergence checks. */
    Cycle checkPeriod = 1024;
};

/** Per-thread measurement produced by a FAME run. */
struct ThreadMeasurement
{
    bool present = false;
    std::uint64_t executions = 0;

    /** Cycles up to the end of the last complete execution. */
    Cycle accountedCycles = 0;

    /** Instructions in the complete executions. */
    std::uint64_t accountedInstrs = 0;

    /** Average execution (repetition) time in cycles. */
    double
    avgExecTime() const
    {
        return executions
                   ? static_cast<double>(accountedCycles) /
                         static_cast<double>(executions)
                   : 0.0;
    }

    /** Average IPC over the accounted window. */
    double
    avgIpc() const
    {
        return accountedCycles
                   ? static_cast<double>(accountedInstrs) /
                         static_cast<double>(accountedCycles)
                   : 0.0;
    }
};

/** Result of one FAME run. */
struct FameResult
{
    std::array<ThreadMeasurement, num_hw_threads> thread;
    Cycle totalCycles = 0;
    bool converged = false;
    bool hitCycleLimit = false;

    /** Combined IPC of all present threads. */
    double
    totalIpc() const
    {
        double sum = 0.0;
        for (const auto &t : thread)
            if (t.present)
                sum += t.avgIpc();
        return sum;
    }
};

class CkptManager;

/** Drives an already-configured core per the FAME methodology. */
class FameRunner
{
  public:
    explicit FameRunner(const FameParams &params = FameParams{});

    /**
     * Run the workload attached to @p core until every attached thread
     * satisfies FAME (min repetitions + MAIV convergence). Equivalent
     * to runWarmup() followed by measure() anchored at the entry cycle.
     */
    FameResult run(SmtCore &core);

    /**
     * Phase 1 only: advance @p core until every attached thread has
     * completed the warm-up repetitions and its per-repetition IPC has
     * stabilized (or the warm-up cycle budget runs out). This is the
     * phase a checkpoint snapshots: everything it does is a pure
     * function of the warm key, never of the measured priority pair.
     */
    void runWarmup(SmtCore &core);

    /**
     * Phase 2 only: measure an already-warm @p core until convergence.
     * @p start anchors the cycle guard and totalCycles accounting at
     * the cycle the warm-up began (0 for a core warmed from fresh,
     * whether directly or restored from a checkpoint), so a
     * restored-then-measured run reports bit-identical results to a
     * cold warm-then-measure run.
     */
    FameResult measure(SmtCore &core, Cycle start);

    /**
     * Phase 1 for a fresh @p core (cycle 0, threads attached at the
     * canonical warm priority): runWarmup(), or with @p ckpts at most
     * once per @p warm_key (see CkptManager) — the first caller warms
     * and snapshots, every later caller restores the snapshot into
     * @p core instead. Either way @p core is then ready for
     * measure(core, 0), with bit-identical results.
     */
    void warmOrFork(SmtCore &core, CkptManager *ckpts,
                    const std::string &warm_key);

    const FameParams &params() const { return params_; }

    /** Observer invoked after every simulation chunk (checkPeriod). */
    using ChunkHook = std::function<void(SmtCore &)>;

    /**
     * Attach a per-chunk observer (e.g. a sched::QuantumMonitor
     * sampling symbiosis inputs). Purely observational: the hook must
     * not advance or mutate the core; convergence is unaffected.
     */
    void setChunkHook(ChunkHook hook) { hook_ = std::move(hook); }

  private:
    FameParams params_;
    ChunkHook hook_;
};

/**
 * Priority every thread warms up under, regardless of the pair being
 * measured. Warming at a fixed canonical priority — (4,4) for pairs,
 * 4 alone for singles — makes the entire warm phase a pure function of
 * the warm key: all 36 priority pairs of a mix share one bit-identical
 * warm trajectory, so one checkpoint forks across the whole matrix.
 * The measured pair is applied at the warm/measure boundary, exactly
 * where a real run would issue its priority-setting instructions after
 * the caches and predictors have trained.
 */
constexpr int canonical_warm_priority = 4;

/**
 * Convenience wrapper used throughout the experiments: build a fresh
 * core, attach @p prog_p (and @p prog_s unless null) at the canonical
 * warm priority, warm it, switch to the given priorities, and measure.
 *
 * Passing prog_s == nullptr measures prog_p in single-thread mode.
 *
 * With @p ckpts attached the warm phase runs at most once per
 * @p warm_key (see CkptManager): the first caller warms and snapshots,
 * every later caller forks by restoring the snapshot into its fresh
 * core. Checkpointed and cold paths produce bit-identical results.
 *
 * @p inspect, when set, sees the core once measurement ends (p5sim
 * perf reads its ticked cycles and fast-forward probes there).
 */
FameResult runFame(const CoreParams &core_params,
                   const InstrSource *prog_p,
                   const InstrSource *prog_s, int prio_p, int prio_s,
                   const FameParams &fame_params = FameParams{},
                   CkptManager *ckpts = nullptr,
                   const std::string &warm_key = std::string(),
                   const std::function<void(const SmtCore &)> &inspect =
                       nullptr);

} // namespace p5

#endif // P5SIM_FAME_FAME_HH
