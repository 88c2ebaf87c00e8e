#include "ckpt/ckpt_manager.hh"

#include <utility>

#include "common/log.hh"

namespace p5 {

CkptManager::Acquired
CkptManager::acquire(const std::string &warm_key, const WarmFn &warm)
{
    ClaimTable<Checkpoint>::Claim claim = images_.claim(warm_key);
    Acquired out;
    if (!claim.mine()) {
        // A sibling holds the claim; wait for its image and fork.
        out.ckpt = claim.get();
        memForks_.fetch_add(1);
        return out;
    }

    // First claimant. A failure anywhere below reaches every waiting
    // sibling as its message and frees the key, so a later caller
    // claims it afresh.
    try {
        Checkpoint image;
        // The persistent area, when attached, stands in for a warm-up
        // that some earlier process already paid for.
        if (store_ && store_->load(warm_key, image)) {
            storeForks_.fetch_add(1);
        } else {
            // Warm for real. warm() runs on the caller's own core, which
            // is the point: the creator measures on the very state it
            // serialized.
            image = warm();
            if (image.warmKey != warm_key)
                fatal("checkpoint created under key '%s' but claimed as "
                      "'%s'",
                      image.warmKey.c_str(), warm_key.c_str());
            if (store_)
                store_->put(image);
            warms_.fetch_add(1);
            out.created = true;
        }
        claim.settle(std::move(image));
    } catch (const std::exception &e) {
        claim.fail(e.what());
        throw;
    }
    out.ckpt = claim.get();
    return out;
}

} // namespace p5
