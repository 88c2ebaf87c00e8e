/**
 * @file
 * Reference set-associative LRU array indexed with the divide formula,
 * the differential oracle for the Cache and Tlb models (which index
 * with precomputed shifts and a mask, and fill in the same walk that
 * looks up), and the address pool that drives it.
 */

#ifndef P5SIM_TESTS_LRU_REFERENCE_HH
#define P5SIM_TESTS_LRU_REFERENCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace p5::test {

/**
 * block = addr / blockBytes, set = block % sets, tag = block / sets.
 * Replacement takes the first invalid way, else the least recently
 * used one, as the models do. Entries keep a valid flag and a lastUse
 * stamp, so the oracle shares none of the models' encoding, where the
 * way order is the recency order and all ones marks an invalid way.
 */
class LruReference
{
  public:
    LruReference(std::uint64_t block_bytes, std::uint64_t sets, int assoc)
        : blockBytes_(block_bytes), sets_(sets), assoc_(assoc),
          ways_(sets * static_cast<std::uint64_t>(assoc))
    {
    }

    /** True iff the block of @p addr is present; no side effects. */
    bool
    probe(Addr addr) const
    {
        return find(addr) >= 0;
    }

    /** On a hit the block becomes most recently used. */
    bool
    lookup(Addr addr)
    {
        const int w = find(addr);
        if (w >= 0)
            ways_[base(addr) + w].lastUse = ++clock_;
        return w >= 0;
    }

    /**
     * Install the block of @p addr (a hit only refreshes recency).
     * @return true iff a valid block was evicted; its address is then
     *         in lastVictim().
     */
    bool
    insert(Addr addr)
    {
        victim_.reset();
        if (lookup(addr))
            return false;
        Way *ways = &ways_[base(addr)];
        Way *victim = ways;
        for (int w = 0; w < assoc_; ++w) {
            if (!ways[w].valid) {
                victim = &ways[w];
                break;
            }
            if (ways[w].lastUse < victim->lastUse)
                victim = &ways[w];
        }
        if (victim->valid)
            victim_ = (victim->tag * sets_ + addr / blockBytes_ % sets_) *
                      blockBytes_;
        *victim = {tagOf(addr), true, ++clock_};
        return victim_.has_value();
    }

    /**
     * Lookup, then insert on a miss: the two-pass sequence the models
     * fold into one walk, counted the way they count it.
     */
    bool
    access(Addr addr)
    {
        victim_.reset();
        if (lookup(addr)) {
            ++hits;
            return true;
        }
        ++misses;
        ++insertions;
        if (insert(addr))
            ++evictions;
        return false;
    }

    /** The valid tags of set @p set, most recently used first. */
    std::vector<std::uint64_t>
    tagsNewestFirst(std::uint64_t set) const
    {
        const Way *ways = &ways_[set * static_cast<std::uint64_t>(assoc_)];
        std::vector<const Way *> valid;
        for (int w = 0; w < assoc_; ++w)
            if (ways[w].valid)
                valid.push_back(&ways[w]);
        std::sort(valid.begin(), valid.end(),
                  [](const Way *a, const Way *b) {
                      return a->lastUse > b->lastUse;
                  });
        std::vector<std::uint64_t> tags;
        for (const Way *way : valid)
            tags.push_back(way->tag);
        return tags;
    }

    /** Address of the block the last insert or access evicted. */
    std::optional<Addr> lastVictim() const { return victim_; }

    void
    invalidate(Addr addr)
    {
        const int w = find(addr);
        if (w >= 0)
            ways_[base(addr) + w].valid = false;
    }

    void
    flushAll()
    {
        for (Way &way : ways_)
            way.valid = false;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t
    tagOf(Addr addr) const
    {
        return addr / blockBytes_ / sets_;
    }

    /** Index of the first way of @p addr's set. */
    std::size_t
    base(Addr addr) const
    {
        return addr / blockBytes_ % sets_ *
               static_cast<std::uint64_t>(assoc_);
    }

    /** The way holding @p addr's block, or -1. */
    int
    find(Addr addr) const
    {
        for (int w = 0; w < assoc_; ++w) {
            const Way &way = ways_[base(addr) + w];
            if (way.valid && way.tag == tagOf(addr))
                return w;
        }
        return -1;
    }

    std::uint64_t blockBytes_;
    std::uint64_t sets_;
    int assoc_;
    std::vector<Way> ways_;
    std::uint64_t clock_ = 0;
    std::optional<Addr> victim_;
};

/**
 * @p count tags for addresses tag * @p span + offset: alternately a
 * neighbour of one random base tag (base + i) and the base with one
 * random bit of the tag flipped. An index function that drops or
 * misplaces any tag bit makes two of them alias.
 */
inline std::vector<std::uint64_t>
collidingTags(Rng &rng, std::uint64_t span, int count)
{
    int tag_bits = 64;
    for (std::uint64_t s = span; s > 1; s /= 2)
        --tag_bits;
    const std::uint64_t base = rng.next() / span;
    std::vector<std::uint64_t> tags;
    for (int i = 0; i < count; ++i)
        tags.push_back(i % 2 == 0
                           ? base + static_cast<std::uint64_t>(i / 2)
                           : base ^ (1ULL << rng.below(tag_bits)));
    return tags;
}

} // namespace p5::test

#endif // P5SIM_TESTS_LRU_REFERENCE_HH
