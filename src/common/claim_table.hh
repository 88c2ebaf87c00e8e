/**
 * @file
 * ClaimTable: keyed values computed once, by whoever asks first, while
 * everyone else who asks waits.
 *
 * claim(key) makes the first caller the key's owner (mine()), who must
 * settle() the value or fail() with a message; every later caller gets
 * a claim on the owner's outcome and waits in get(). A settled value is
 * shared read-only by every claimant. A failure releases the key, so a
 * later claim computes afresh, and reaches each waiter as the owner's
 * message: each waiter throws its own p5::Error, since one exception
 * object rethrown in several threads is a data race to ThreadSanitizer.
 *
 * Two tables use it: SimRunner's ResultCache (job results) and
 * CkptManager (warm images). Claims live in a std::map, so nothing
 * about the table depends on hash order.
 */

#ifndef P5SIM_COMMON_CLAIM_TABLE_HH
#define P5SIM_COMMON_CLAIM_TABLE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/log.hh"

namespace p5 {

/** Thread-safe map from key to a value its first claimant computes. */
template <typename V>
class ClaimTable
{
    /** What a claim resolves to: the value, or why its owner failed. */
    struct Outcome
    {
        std::shared_ptr<const V> value;
        std::string error; ///< set when value is null
    };

  public:
    /** One caller's hold on a key: the owner's, or a waiter's. */
    class Claim
    {
      public:
        /** This caller owns the key and must settle() or fail() it. */
        bool mine() const { return promise_ != nullptr; }

        /**
         * Wait for the owner's outcome: the shared value, or a
         * p5::Error carrying the message the owner failed with.
         */
        std::shared_ptr<const V>
        get() const
        {
            const Outcome &outcome = future_.get();
            if (!outcome.value)
                fatal("%s", outcome.error.c_str());
            return outcome.value;
        }

        /** Publish @p value to every waiter (owner only). */
        void
        settle(V value)
        {
            if (!mine())
                panic("settle() on a claim of '%s' held by another caller",
                      key_.c_str());
            promise_->set_value(
                {std::make_shared<const V>(std::move(value)), {}});
        }

        /** Release the key, then fail every waiter with @p message. */
        void
        fail(const std::string &message)
        {
            if (!mine())
                panic("fail() on a claim of '%s' held by another caller",
                      key_.c_str());
            table_->release(key_);
            promise_->set_value({nullptr, message});
        }

      private:
        friend class ClaimTable;
        Claim() = default;

        ClaimTable *table_ = nullptr;
        std::string key_;
        std::unique_ptr<std::promise<Outcome>> promise_; ///< when mine()
        std::shared_future<Outcome> future_;
    };

    ClaimTable() = default;
    ClaimTable(const ClaimTable &) = delete;
    ClaimTable &operator=(const ClaimTable &) = delete;

    /**
     * Claim @p key: its owner if nobody holds it (a miss), otherwise a
     * waiter on the holder's outcome (a hit).
     */
    Claim
    claim(const std::string &key)
    {
        Claim c;
        c.table_ = this;
        c.key_ = key;
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            hits_.fetch_add(1);
            c.future_ = it->second;
            return c;
        }
        misses_.fetch_add(1);
        c.promise_ = std::make_unique<std::promise<Outcome>>();
        c.future_ = c.promise_->get_future().share();
        map_.emplace(key, c.future_);
        return c;
    }

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

    /** Forget every key (not the counters); claims already held stay valid. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
    }

  private:
    void
    release(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.erase(key);
    }

    mutable std::mutex mutex_;
    std::map<std::string, std::shared_future<Outcome>> map_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace p5

#endif // P5SIM_COMMON_CLAIM_TABLE_HH
