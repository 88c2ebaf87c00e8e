#include "fame/sim_runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>

#include "common/log.hh"
#include "store/result_store.hh"

namespace p5 {

ResultCache &
ResultCache::process()
{
    static ResultCache cache;
    return cache;
}

SimRunner::SimRunner(unsigned jobs, ResultCache *cache)
    : jobs_(jobs ? jobs : defaultWorkers()),
      cache_(cache ? cache : &ResultCache::process())
{}

unsigned
SimRunner::defaultWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

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
    if (provenance && provenance->size() != batch.size())
        panic("provenance vector (%zu) does not parallel batch (%zu)",
              provenance->size(), batch.size());

    // Claim every job up front; duplicates (within the batch or from
    // earlier batches) wait on the same claim and never re-run.
    std::vector<ResultCache::Claim> claims;
    claims.reserve(batch.size());
    std::vector<std::size_t> owned_at;
    std::vector<const SimJob *> owned;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        claims.push_back(cache_->claim(batch[i].key()));
        if (claims.back().mine()) {
            owned_at.push_back(i);
            owned.push_back(&batch[i]);
        }
    }
    const std::vector<std::size_t> order = dispatchOrder(owned);

    static const StoreProvenance no_provenance;
    // The first failure ends the batch: every claim taken after it
    // fails with its message instead of running, so one bad input does
    // not wait for the rest of the batch to simulate.
    std::mutex failure_mutex;
    std::exception_ptr failure;
    std::string failure_message;
    auto end_batch = [&](ResultCache::Claim &claim, const char *message) {
        {
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure) {
                failure = std::current_exception();
                failure_message = message;
            }
        }
        claim.fail(message);
    };
    auto execute = [&](std::size_t i) {
        ResultCache::Claim &claim = claims[i];
        try {
            {
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (failure) {
                    claim.fail(failure_message);
                    return;
                }
            }
            // Beneath the in-process cache: a stored result satisfies
            // the claim without simulating (read-through), and a fresh
            // result is published as soon as it exists (write-through),
            // so a killed sweep keeps every finished point.
            SimResult result;
            if (!store_ || !storeReadThrough_ ||
                !store_->load(batch[i], result)) {
                result = batch[i].execute(checkpoints_);
                if (store_)
                    store_->put(batch[i], result,
                                provenance ? (*provenance)[i]
                                           : no_provenance);
            }
            claim.settle(std::move(result));
        } catch (const std::exception &e) {
            end_batch(claim, e.what());
        } catch (...) {
            // Whatever a job throws ends the batch: nothing may escape
            // a helper thread, where it would terminate the process.
            end_batch(claim, "a job threw a non-standard exception");
        }
    };

    // The caller and its helpers take claimed jobs from one cursor in
    // dispatch order; the helpers join at the closing brace, when every
    // claim of this batch has been settled or failed.
    std::atomic<std::size_t> cursor{0};
    auto work = [&] {
        for (std::size_t n = cursor++; n < order.size(); n = cursor++)
            execute(owned_at[order[n]]);
    };
    {
        const std::size_t workers =
            std::min(static_cast<std::size_t>(jobs_), order.size());
        std::vector<std::jthread> helpers;
        for (std::size_t h = 1; h < workers; ++h)
            helpers.emplace_back(work);
        work();
    }
    if (failure)
        std::rethrow_exception(failure);

    std::vector<SimResult> results;
    results.reserve(batch.size());
    for (const ResultCache::Claim &claim : claims)
        results.push_back(*claim.get()); // waits on other batches' jobs
    return results;
}

SimResult
SimRunner::runOne(const SimJob &job)
{
    return run({job}).front();
}

} // namespace p5
