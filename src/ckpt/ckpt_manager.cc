#include "ckpt/ckpt_manager.hh"

#include <exception>
#include <utility>

#include "common/log.hh"

namespace p5 {

CkptManager::Acquired
CkptManager::acquire(const std::string &warm_key, const WarmFn &warm)
{
    std::promise<Outcome> promise;
    std::shared_future<Outcome> future;
    bool claimed = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(warm_key);
        if (it == cache_.end()) {
            future = promise.get_future().share();
            cache_.emplace(warm_key, future);
            claimed = true;
        } else {
            future = it->second;
        }
    }

    if (!claimed) {
        // A sibling holds the claim; wait for its image and fork.
        const Outcome &claim = future.get();
        if (!claim.ckpt)
            fatal("%s", claim.error.c_str());
        Acquired out;
        out.ckpt = claim.ckpt;
        memForks_.fetch_add(1);
        return out;
    }

    // First claimant. A failure anywhere below reaches every waiting
    // sibling and frees the key, so a later caller claims it afresh
    // (ResultCache::abandon does the same for jobs). Siblings get the
    // message, not the exception: each throws its own, since one
    // exception object read by several threads is a data race as far
    // as ThreadSanitizer can see.
    try {
        Acquired out;
        // The persistent area, when attached, stands in for a warm-up
        // that some earlier process already paid for.
        if (store_) {
            auto loaded = std::make_shared<Checkpoint>();
            if (store_->load(warm_key, *loaded)) {
                out.ckpt = std::move(loaded);
                storeForks_.fetch_add(1);
            }
        }
        if (!out.ckpt) {
            // Warm for real. warm() runs on the caller's own core, which
            // is the point: the creator measures on the very state it
            // serialized.
            auto created = std::make_shared<Checkpoint>(warm());
            if (created->warmKey != warm_key)
                fatal("checkpoint created under key '%s' but claimed as "
                      "'%s'",
                      created->warmKey.c_str(), warm_key.c_str());
            if (store_)
                store_->put(*created);
            out.ckpt = std::move(created);
            warms_.fetch_add(1);
            out.created = true;
        }
        promise.set_value({out.ckpt, {}});
        return out;
    } catch (const std::exception &e) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            cache_.erase(warm_key);
        }
        promise.set_value({nullptr, e.what()});
        throw;
    }
}

} // namespace p5
