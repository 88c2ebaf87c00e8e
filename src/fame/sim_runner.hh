/**
 * @file
 * SimRunner: executes batches of SimJobs on the calling thread plus
 * helper threads, through a keyed result cache.
 *
 * The cache is a ClaimTable keyed by SimJob::key(), so any
 * configuration simulates at most once per process no matter how many
 * producers ask for it — the (4,4) baselines shared by Table 3 and
 * Figs. 2-4 are the headline case. Duplicates *within* one batch are
 * also coalesced: the first occurrence runs, the rest wait on its
 * claim. Cache hit/miss counters are exposed for tests and JSON
 * reports.
 *
 * Correctness under concurrency: a job executes with zero shared mutable
 * state (it builds its own programs and its own core; the only process
 * globals it touches — the log level and warn counter — are atomic), so
 * results are bit-identical regardless of worker count or scheduling
 * order. tests/test_sim_runner.cc asserts jobs=1 == jobs=8.
 *
 * Dispatch order: the workers take a batch's claimed jobs from one
 * cursor over dispatchOrder(). With more than one worker that is
 * longest-expected-first, so the batch does not end on one long job
 * started last; with one, the calling thread runs them in submission
 * order. Results always come back in batch order.
 */

#ifndef P5SIM_FAME_SIM_RUNNER_HH
#define P5SIM_FAME_SIM_RUNNER_HH

#include <vector>

#include "common/claim_table.hh"
#include "fame/sim_job.hh"

namespace p5 {

class CkptManager;
class ResultStore;
struct StoreProvenance;

/** Process-lifetime table from job key to completed (or running) result. */
class ResultCache : public ClaimTable<SimResult>
{
  public:
    /** The per-process cache used by the experiment producers. */
    static ResultCache &process();
};

/** Runs SimJob batches on up to `jobs` threads, through a ResultCache. */
class SimRunner
{
  public:
    /**
     * @param jobs worker threads; 0 selects the hardware concurrency.
     * @param cache result cache; nullptr selects ResultCache::process().
     */
    explicit SimRunner(unsigned jobs = 0, ResultCache *cache = nullptr);

    /**
     * Attach a persistent result store beneath the in-process cache.
     * Every executed storable job is written through as it completes
     * (so a killed sweep keeps its finished points); when
     * @p read_through is set, a cache miss first consults the store
     * and a valid stored result is served without simulating.
     */
    void setStore(ResultStore *store, bool read_through);

    /**
     * Attach a checkpoint manager: FAME jobs executed by this runner
     * warm through it (at most one simulated warm-up per warm key;
     * siblings fork the snapshot). nullptr — the default — warms every
     * job inline. Stats are bit-identical either way; only wall-clock
     * changes. Not owned; must outlive the runner.
     */
    void setCheckpoints(CkptManager *ckpts) { checkpoints_ = ckpts; }

    /**
     * Execute @p batch and return results in batch order. Every unique
     * key is executed at most once (per process, via the cache). The
     * first job to throw ends the batch: jobs already running finish,
     * every claimed job taken after it fails with its message, and the
     * exception itself is rethrown here.
     *
     * @p provenance, when given, must parallel @p batch; entry i is
     * stamped into the store file of batch[i] (write-through only).
     */
    std::vector<SimResult>
    run(const std::vector<SimJob> &batch,
        const std::vector<StoreProvenance> *provenance = nullptr);

    /**
     * Expected relative cost of @p job, the dispatch key: |prioPrimary
     * - prioSecondary| for a two-thread FAME job, 0 for every other
     * job. Under the decode-slot rule R = 2^(|PrioP - PrioS| + 1) the
     * lower-priority thread decodes in 1 of every R slots, and FAME
     * runs until both threads finish their repetitions, so the cost
     * grows with the priority difference.
     */
    static int expectedCost(const SimJob &job);

    /**
     * Positions in @p jobs in the order run() starts them: with one
     * worker, submission order; otherwise a stable sort by descending
     * expectedCost(), so equal costs keep submission order. As a side
     * effect, the longest job of each pair-mix claims its warm key, so
     * the warm-up creators of different mixes start on different
     * workers.
     */
    std::vector<std::size_t>
    dispatchOrder(const std::vector<const SimJob *> &jobs) const;

    /** Convenience single-job run (still cached). */
    SimResult runOne(const SimJob &job);

    /** max(1, std::thread::hardware_concurrency()). */
    static unsigned defaultWorkers();

  private:
    unsigned jobs_;
    ResultCache *cache_;
    ResultStore *store_ = nullptr;
    bool storeReadThrough_ = false;
    CkptManager *checkpoints_ = nullptr;
};

} // namespace p5

#endif // P5SIM_FAME_SIM_RUNNER_HH
