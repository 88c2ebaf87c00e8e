/**
 * @file
 * Experiment harness: one producer per table/figure of the paper's
 * evaluation (Sec. 5). Each producer returns plain data; exp/report.hh
 * renders it in the paper's row/series layout.
 */

#ifndef P5SIM_EXP_EXPERIMENTS_HH
#define P5SIM_EXP_EXPERIMENTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/annotate.hh"
#include "core/params.hh"
#include "fame/fame.hh"
#include "sched/sched_params.hh"
#include "ubench/ubench.hh"
#include "workloads/pipeline_app.hh"
#include "workloads/spec_proxy.hh"

namespace p5 {

class CkptManager;
class ResultCache;

/** Shared experiment configuration. */
struct P5_CONFIG_STRUCT ExpConfig
{
    CoreParams core;
    FameParams fame;

    /** Cores per chip for chip-level studies (chip.num_cores). */
    int numCores = 2;

    /** Scheduler configuration for allocation studies (sched.*). */
    SchedParams sched;

    /** Work multiplier for micro-benchmark executions. */
    double ubenchScale = 1.0;

    /** Micro-benchmarks to sweep (defaults to the paper's six). */
    std::vector<UbenchId> benchmarks = presentedUbench();

    /**
     * Path to a recorded trace replayed as the primary thread's
     * workload ("" keeps the synthetic generator). The path itself is
     * a location, not an identity — the companion fingerprint below is
     * what enters the config identity.
     */
    std::string workloadTrace;

    /**
     * Content fingerprint of workloadTrace ("" when unset). Derived by
     * the config layer whenever workload.trace is assigned; identity —
     * folded into the config fingerprint so a trace-driven run can
     * never alias a synthetic one in the result or checkpoint stores.
     */
    std::string workloadTraceFp;

    /** Like workloadTrace, for the secondary thread. */
    std::string workloadTraceSecondary;

    /** Content fingerprint of workloadTraceSecondary ("" when unset). */
    std::string workloadTraceSecondaryFp;

    /**
     * Simulation worker threads per producer batch; 0 selects the
     * hardware concurrency. Results are bit-identical for any value.
     */
    unsigned jobs = 0;

    /**
     * Result cache the producers run through; nullptr selects the
     * process-wide ResultCache (so e.g. the (4,4) baselines shared by
     * Table 3 and Figs. 2-4 simulate once per process). Tests inject a
     * private cache to force re-execution.
     */
    P5_ALLOW(config_completeness) ResultCache *cache = nullptr;

    /**
     * Checkpoint manager the producers' runners warm FAME jobs through;
     * nullptr runs every warm-up inline (the pre-checkpoint behaviour,
     * bit-identical by construction). The driver owns one per
     * invocation and optionally backs it with a persistent CkptStore.
     */
    P5_ALLOW(config_completeness) CkptManager *checkpoints = nullptr;

    /**
     * Master seed folded into the config fingerprint; per-job RNG
     * streams derive from the job key (which embeds the fingerprint via
     * configTag), so changing the seed re-keys every randomized draw a
     * job ever grows without touching any other configuration.
     */
    std::uint64_t seed = 0;

    /**
     * Config-tree fingerprint of the run this config was materialized
     * from ("" when the config was built in code rather than through a
     * ConfigTree). Producers fold it into every enumerated SimJob key;
     * see SimJob::configTag.
     */
    P5_ALLOW(config_completeness) std::string configTag;

    /**
     * Warm-phase fingerprint of the run this config was materialized
     * from ("" for code-built configs). Producers fold it into every
     * enumerated FAME job's warm key; see SimJob::warmTag.
     */
    P5_ALLOW(config_completeness) std::string warmTag;

    /** Reduced-accuracy configuration for smoke tests. */
    static ExpConfig fast();
};

/**
 * Map a priority difference to the (PrioP, PrioS) pair used in the
 * sweeps: +1 -> (5,4), +2 -> (6,4), +3 -> (6,3), +4 -> (6,2),
 * +5 -> (6,1); negative differences mirror. Difference 0 is (4,4).
 * Stays within the supervisor range 1..6 like the paper's kernel patch.
 */
std::pair<int, int> prioPairForDiff(int diff);

// --- Table 3 ----------------------------------------------------------

/** ST IPC plus the pairwise SMT(4,4) IPC matrix. */
struct Table3Data
{
    std::vector<UbenchId> benchmarks;

    /** Single-thread IPC per benchmark. */
    std::vector<double> stIpc;

    /** pt[i][j]: IPC of benchmark i when co-run with j at (4,4). */
    std::vector<std::vector<double>> pt;

    /** tt[i][j]: total IPC of the (i, j) pair at (4,4). */
    std::vector<std::vector<double>> tt;
};

Table3Data runTable3(const ExpConfig &config);

// --- Figures 2 and 3 ---------------------------------------------------

/**
 * Relative performance of the PThread as its priority moves away from
 * the SThread's (Fig. 2: positive, Fig. 3: negative).
 */
struct PrioCurveData
{
    std::vector<UbenchId> benchmarks;

    /** Priority differences, e.g. {+1..+5} or {-1..-5}. */
    std::vector<int> diffs;

    /**
     * rel[p][s][d]: PThread p's performance with SThread s at diff
     * diffs[d], relative to the (4,4) baseline (execution-time ratio
     * baseline/current; >1 is speedup, <1 slowdown).
     */
    std::vector<std::vector<std::vector<double>>> rel;
};

PrioCurveData runFig2(const ExpConfig &config);
PrioCurveData runFig3(const ExpConfig &config);

// --- Figure 4 ----------------------------------------------------------

/** Total IPC across priority differences, relative to (4,4). */
struct ThroughputData
{
    std::vector<UbenchId> benchmarks;
    std::vector<int> diffs; ///< -4..+4

    /** ratio[p][s][d]: total IPC at diffs[d] / total IPC at (4,4). */
    std::vector<std::vector<std::vector<double>>> ratio;

    /** stIpc[p]: single-thread IPC (the figure's legend). */
    std::vector<double> stIpc;
};

ThroughputData runFig4(const ExpConfig &config);

// --- Figure 5 ----------------------------------------------------------

/** Case-study IPCs as the high-IPC thread's priority increases. */
struct CaseStudyData
{
    SpecProxyId primary;
    SpecProxyId secondary;
    std::vector<int> diffs; ///< 0..+5

    std::vector<double> ipcPrimary;
    std::vector<double> ipcSecondary;
    std::vector<double> ipcTotal;
};

/**
 * Every pair's diffs 0..+5, submitted as one batch (so the runner can
 * start the long high-difference jobs of all pairs first); results in
 * @p pairs order.
 */
std::vector<CaseStudyData>
runFig5(const std::vector<std::pair<SpecProxyId, SpecProxyId>> &pairs,
        const ExpConfig &config);

/** One pair; the same numbers as its entry in the batched form. */
CaseStudyData runFig5(SpecProxyId primary, SpecProxyId secondary,
                      const ExpConfig &config);

// --- Table 4 -----------------------------------------------------------

/** FFT/LU pipeline timings per priority configuration. */
struct Table4Row
{
    bool singleThread = false;
    int prioFft = default_priority;
    int prioLu = default_priority;
    double fftCycles = 0.0;
    double luCycles = 0.0;
    double iterationCycles = 0.0;
};

struct Table4Data
{
    std::vector<Table4Row> rows;
};

Table4Data runTable4(const ExpConfig &config);

// --- Figure 6 ----------------------------------------------------------

/** Transparent-execution study. */
struct TransparencyData
{
    /** Foreground benchmarks of panels (a)/(b). */
    std::vector<UbenchId> foregrounds;

    /** Background benchmarks (legend of panels (a)/(b)). */
    std::vector<UbenchId> backgrounds;

    /**
     * relExec[fgPrioIdx][f][b]: foreground f's execution time with
     * background b at priority 1, relative to f's ST execution time
     * (1.0 = fully transparent). fgPrioIdx 0 -> priority 6, 1 -> 5.
     */
    std::array<std::vector<std::vector<double>>, 2> relExec;

    /** Panel (c): worst-case background (ldint_mem) as the foreground
     *  priority drops 6,5,4,3,2 (background stays at 1). */
    std::vector<UbenchId> panelCForegrounds;
    std::vector<int> panelCPriorities;
    std::vector<std::vector<double>> panelCRelExec; ///< [prio][fg]

    /** Panel (d): average background IPC per (fgPrio, bg). */
    std::vector<std::vector<double>> bgIpc; ///< [prio][bg]
};

TransparencyData runFig6(const ExpConfig &config);

// --- Allocation studies (src/sched) ------------------------------------

/** One allocation policy's outcome on one thread mix. */
struct AllocPolicyOutcome
{
    AllocPolicy policy = AllocPolicy::Pinned;

    /** Chip-wide committed IPC over the study. */
    double aggregateIpc = 0.0;

    std::uint64_t migrations = 0;
    std::uint64_t quanta = 0;

    /** ChipConservation violations (0 on a healthy run). */
    std::uint64_t checkViolations = 0;

    /** Per-runnable-thread IPC over its scheduled cycles. */
    std::vector<double> threadIpc;

    /** rngSeed of the job (provenance for offline replay). */
    std::uint64_t rngSeed = 0;
};

/** Policy comparison on a fixed mix (the `p5sim alloc` experiment). */
struct AllocStudyData
{
    /** Benchmark name per runnable thread, workload order. */
    std::vector<std::string> mixNames;

    int numCores = 2;
    Cycle cycles = 0;

    /** One outcome per requested policy, request order. */
    std::vector<AllocPolicyOutcome> outcomes;
};

/**
 * Run the mix under each policy (config.sched supplies quantum and
 * history depth; its policy field is overridden per outcome) on a
 * config.numCores-core chip for @p cycles chip cycles.
 */
AllocStudyData runAllocStudy(const std::vector<UbenchId> &mix,
                             const std::vector<AllocPolicy> &policies,
                             Cycle cycles, const ExpConfig &config);

} // namespace p5

#endif // P5SIM_EXP_EXPERIMENTS_HH
