/**
 * @file
 * SimRunner: executes batches of SimJobs across a thread pool, with a
 * keyed result cache.
 *
 * The cache is keyed by SimJob::key(), so any configuration simulates at
 * most once per process no matter how many producers ask for it — the
 * (4,4) baselines shared by Table 3 and Figs. 2-4 are the headline case.
 * Duplicates *within* one batch are also coalesced: the first occurrence
 * runs, the rest wait on its future. Cache hit/miss counters are exposed
 * for tests and JSON reports.
 *
 * Correctness under concurrency: a job executes with zero shared mutable
 * state (it builds its own programs and its own core; the only process
 * globals it touches — the log level and warn counter — are atomic), so
 * results are bit-identical regardless of worker count or scheduling
 * order. tests/test_sim_runner.cc asserts jobs=1 == jobs=8.
 *
 * Dispatch order: with more than one worker, the jobs a batch must
 * execute start longest-expected-first (dispatchOrder()), so the batch
 * does not end on one long job started last. The serial path keeps
 * submission order. Results always come back in batch order.
 */

#ifndef P5SIM_FAME_SIM_RUNNER_HH
#define P5SIM_FAME_SIM_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/annotate.hh"
#include "fame/sim_job.hh"

namespace p5 {

class CkptManager;
class ResultStore;
struct StoreProvenance;

/** Process-lifetime map from job key to completed (or running) result. */
class ResultCache
{
  public:
    ResultCache() = default;
    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** The per-process cache used by the experiment producers. */
    static ResultCache &process();

    /**
     * Claim @p key: if absent, the caller must execute the job and
     * fulfill the returned promise slot (claimed == true); if present,
     * wait on the returned future (claimed == false, a hit).
     */
    struct Claim
    {
        bool claimed = false;
        std::shared_future<SimResult> future;
        std::shared_ptr<std::promise<SimResult>> promise; ///< when claimed
    };
    Claim claim(const std::string &key);

    /** Drop a claimed entry whose execution failed (un-poisons the map). */
    void abandon(const std::string &key);

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::size_t size() const;

    /** Forget all results (not the counters). */
    void clear();

  private:
    mutable std::mutex mutex_;
    // Lookup-only by construction: every access is find/emplace/erase/
    // size/clear under mutex_ — nothing ever iterates the map, so its
    // hash order cannot leak into reports (audited for p5lint's
    // determinism rule; keep it that way or switch to std::map).
    P5_ALLOW(determinism)
    std::unordered_map<std::string, std::shared_future<SimResult>> map_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

/** Runs SimJob batches over a worker pool, through a ResultCache. */
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
     * every claimed job not yet started is abandoned with that
     * exception, and it is rethrown here.
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

    unsigned jobs() const { return jobs_; }
    ResultCache &cache() { return *cache_; }
    ResultStore *store() { return store_; }
    CkptManager *checkpoints() { return checkpoints_; }

  private:
    unsigned jobs_;
    ResultCache *cache_;
    ResultStore *store_ = nullptr;
    bool storeReadThrough_ = false;
    CkptManager *checkpoints_ = nullptr;
};

} // namespace p5

#endif // P5SIM_FAME_SIM_RUNNER_HH
