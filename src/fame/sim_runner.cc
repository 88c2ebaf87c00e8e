#include "fame/sim_runner.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <numeric>

#include "common/log.hh"
#include "common/thread_pool.hh"
#include "store/result_store.hh"

namespace p5 {

ResultCache &
ResultCache::process()
{
    static ResultCache cache;
    return cache;
}

ResultCache::Claim
ResultCache::claim(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        hits_.fetch_add(1);
        return Claim{false, it->second, nullptr};
    }
    misses_.fetch_add(1);
    auto promise = std::make_shared<std::promise<SimResult>>();
    std::shared_future<SimResult> future =
        promise->get_future().share();
    map_.emplace(key, future);
    return Claim{true, future, std::move(promise)};
}

void
ResultCache::abandon(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.erase(key);
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
}

SimRunner::SimRunner(unsigned jobs, ResultCache *cache)
    : jobs_(jobs ? jobs : ThreadPool::defaultWorkers()),
      cache_(cache ? cache : &ResultCache::process())
{}

void
SimRunner::setStore(ResultStore *store, bool read_through)
{
    store_ = store;
    storeReadThrough_ = store ? read_through : false;
}

int
SimRunner::expectedCost(const SimJob &job)
{
    if (job.kind != SimJobKind::FamePair || !job.secondary.present())
        return 0;
    return std::abs(job.prioPrimary - job.prioSecondary);
}

std::vector<std::size_t>
SimRunner::dispatchOrder(const std::vector<const SimJob *> &jobs) const
{
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (jobs_ > 1)
        std::stable_sort(order.begin(), order.end(),
                         [&jobs](std::size_t a, std::size_t b) {
                             return expectedCost(*jobs[a]) >
                                    expectedCost(*jobs[b]);
                         });
    return order;
}

std::vector<SimResult>
SimRunner::run(const std::vector<SimJob> &batch,
               const std::vector<StoreProvenance> *provenance)
{
    struct Pending
    {
        const SimJob *job;
        std::string key;
        ResultCache::Claim claim;
        const StoreProvenance *prov;
    };

    if (provenance && provenance->size() != batch.size())
        panic("provenance vector (%zu) does not parallel batch (%zu)",
              provenance->size(), batch.size());

    // Claim every job up front; duplicates (within the batch or from
    // earlier batches) resolve to the same future and never re-run.
    std::vector<std::shared_future<SimResult>> futures;
    futures.reserve(batch.size());
    std::vector<Pending> toRun;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const SimJob &job = batch[i];
        std::string key = job.key();
        ResultCache::Claim claim = cache_->claim(key);
        futures.push_back(claim.future);
        if (claim.claimed)
            toRun.push_back(Pending{
                &job, std::move(key), std::move(claim),
                provenance ? &(*provenance)[i] : nullptr});
    }

    static const StoreProvenance no_provenance;
    // The first failure ends the batch: every claim not yet started is
    // abandoned with that exception instead of running, so one bad
    // input does not wait for the rest of the batch to simulate.
    std::mutex failure_mutex;
    std::exception_ptr failure;
    auto executeOne = [&](Pending &p) {
        {
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (failure) {
                cache_->abandon(p.key);
                p.claim.promise->set_exception(failure);
                return;
            }
        }
        try {
            // Beneath the in-process cache: a stored result satisfies
            // the claim without simulating (read-through), and a fresh
            // result is published as soon as it exists (write-through),
            // so a killed sweep keeps every finished point.
            SimResult result;
            if (store_ && storeReadThrough_ &&
                store_->load(*p.job, result)) {
                p.claim.promise->set_value(std::move(result));
                return;
            }
            result = p.job->execute(checkpoints_);
            if (store_)
                store_->put(*p.job, result,
                            p.prov ? *p.prov : no_provenance);
            p.claim.promise->set_value(std::move(result));
        } catch (...) {
            // Don't poison the cache with the failure; rethrow to the
            // batch's caller through the future.
            cache_->abandon(p.key);
            p.claim.promise->set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure)
                failure = std::current_exception();
        }
    };

    if (!toRun.empty()) {
        if (jobs_ == 1 || toRun.size() == 1) {
            // Serial path: no pool, deterministic submission order.
            for (Pending &p : toRun)
                executeOne(p);
        } else {
            const unsigned workers = static_cast<unsigned>(std::min(
                static_cast<std::size_t>(jobs_), toRun.size()));
            std::vector<const SimJob *> claimed;
            claimed.reserve(toRun.size());
            for (const Pending &p : toRun)
                claimed.push_back(p.job);
            // executeOne never throws (it settles every promise), and
            // the pool's destructor drains its FIFO queue, so the jobs
            // start in dispatch order and have all been settled at the
            // closing brace.
            ThreadPool pool(workers);
            for (std::size_t i : dispatchOrder(claimed)) {
                Pending &p = toRun[i];
                pool.submit([&executeOne, &p] { executeOne(p); });
            }
        }
    }
    if (failure)
        std::rethrow_exception(failure);

    std::vector<SimResult> results;
    results.reserve(batch.size());
    for (auto &future : futures)
        results.push_back(future.get()); // rethrows a failed duplicate
    return results;
}

SimResult
SimRunner::runOne(const SimJob &job)
{
    return run({job}).front();
}

} // namespace p5
