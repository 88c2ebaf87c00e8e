/**
 * @file
 * Warm-state sharing across the jobs of one process, plus optional
 * persistence through a CkptStore.
 *
 * The manager implements the checkpoint/fork execution model: jobs that
 * share a *warm key* (the priority- and measurement-free slice of their
 * identity — same programs, same core geometry, same warm-up policy)
 * share one warm-up. The first job to ask for a key claims it and either
 * loads the warm image from the attached store (a *store fork*) or runs
 * the warm-up itself and publishes the serialized state; every later job
 * blocks on the claim and restores the shared image into its own fresh
 * core (an *in-memory fork*). With 36 priority pairs per pair-mix this
 * turns 36 warm-ups into one.
 *
 * Which job creates a key follows from the SimRunner's dispatch order:
 * on more than one worker a batch starts longest-expected-first, by
 * descending |PrioP - PrioS| (the lower-priority thread decodes in 1 of
 * every R = 2^(|PrioP - PrioS| + 1) slots, so FAME's wait for both
 * threads' repetitions grows with the difference). Each pair-mix's
 * longest job therefore claims the key, and the creators of different
 * mixes start together on different workers.
 *
 * Claims go through a ClaimTable, as the SimRunner's job results do:
 * first claimant computes, everyone else waits on its claim. Waiting
 * on a runner thread cannot deadlock because a key is only claimed by
 * a job that is already running, so its creator is actively warming on
 * another thread. A claim that fails (warm() or the store throws)
 * hands its message to every waiting sibling, which fails with it, and
 * releases the key, so a later caller claims it afresh.
 */

#ifndef P5SIM_CKPT_CKPT_MANAGER_HH
#define P5SIM_CKPT_CKPT_MANAGER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ckpt/ckpt.hh"
#include "common/claim_table.hh"

namespace p5 {

/** In-process checkpoint cache with claim/fork semantics. */
class CkptManager
{
  public:
    CkptManager() = default;
    CkptManager(const CkptManager &) = delete;
    CkptManager &operator=(const CkptManager &) = delete;

    /**
     * Attach a persistent area. Claims consult it before warming and
     * write freshly created checkpoints through to it. Not owned; must
     * outlive the manager.
     */
    void setStore(CkptStore *store) { store_ = store; }

    CkptStore *store() const { return store_; }

    /** Builds (warms + serializes) the checkpoint for a claimed key. */
    using WarmFn = std::function<Checkpoint()>;

    /** Outcome of acquire(): the shared image plus how it was obtained. */
    struct Acquired
    {
        std::shared_ptr<const Checkpoint> ckpt;

        /** This caller ran the warm-up inline (its core is now warm). */
        bool created = false;
    };

    /**
     * Get the checkpoint for @p warm_key, warming at most once per key
     * per area. The first caller claims the key: it loads from the
     * attached store when possible, otherwise runs @p warm inline and
     * publishes (write-through to the store). Later callers block until
     * the claimant finishes and receive the shared image, or fatal()
     * with the message of the claimant's failure.
     *
     * When Acquired.created is true the caller's own core already holds
     * the warm state (warm ran on it) and must NOT restore; otherwise
     * the caller forks by deserializing Acquired.ckpt into a fresh core.
     */
    Acquired acquire(const std::string &warm_key, const WarmFn &warm);

    /** Warm-ups actually simulated (checkpoint creations). */
    std::uint64_t warms() const { return warms_.load(); }

    /** Jobs satisfied by restoring an in-process sibling's image. */
    std::uint64_t memForks() const { return memForks_.load(); }

    /** Keys satisfied by loading the persistent area. */
    std::uint64_t storeForks() const { return storeForks_.load(); }

    /** Total jobs that skipped their warm-up (all fork flavors). */
    std::uint64_t forks() const { return memForks() + storeForks(); }

  private:
    ClaimTable<Checkpoint> images_;
    CkptStore *store_ = nullptr;
    std::atomic<std::uint64_t> warms_{0};
    std::atomic<std::uint64_t> memForks_{0};
    std::atomic<std::uint64_t> storeForks_{0};
};

} // namespace p5

#endif // P5SIM_CKPT_CKPT_MANAGER_HH
