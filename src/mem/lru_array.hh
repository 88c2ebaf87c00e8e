/**
 * @file
 * Set-associative true-LRU array: the one storage primitive behind the
 * caches and the D-TLBs.
 *
 * An entry is the tag alone, 8 bytes, and a set keeps its ways in
 * recency order: way 0 is the most recently used, the valid tags form
 * a prefix, and invalid_tag (all ones) fills the rest. A tag is
 * addr >> tag_shift with a shift of at least 1, so it is never all
 * ones. access() finds, refreshes or fills a block in one walk of the
 * valid prefix: the ways before it move down one and it takes way 0;
 * a fill into a full set pushes the last, least recently used, way out.
 */

#ifndef P5SIM_MEM_LRU_ARRAY_HH
#define P5SIM_MEM_LRU_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace p5 {

/** Set-associative array with true-LRU replacement. */
class LruArray
{
  public:
    /**
     * @param sets        number of sets, a power of two
     * @param assoc       ways per set
     * @param index_shift set = (addr >> index_shift) & (sets - 1)
     * @param tag_shift   tag = addr >> tag_shift, at least 1
     */
    LruArray(std::uint64_t sets, int assoc, int index_shift, int tag_shift)
        : assoc_(assoc), setMask_(sets - 1), indexShift_(index_shift),
          tagShift_(tag_shift),
          tags_(sets * static_cast<std::uint64_t>(assoc), invalid_tag)
    {
        if (tag_shift < 1)
            fatal("LRU array: a tag shift of 0 cannot mark invalid ways");
    }

    /**
     * Look up @p addr. A hit makes its block most recently used; a miss
     * fills the block over the first invalid way, else the LRU way.
     *
     * @return true on hit.
     */
    bool
    access(Addr addr)
    {
        const Addr tag = addr >> tagShift_;
        Addr *set = &tags_[setBase(addr)];
        int w = 0;
        while (w < assoc_ && set[w] != tag && set[w] != invalid_tag)
            ++w;
        const bool hit = w < assoc_ && set[w] == tag;
        if (hit) {
            ++hits_;
        } else {
            ++misses_;
            ++insertions_;
            if (w == assoc_) {
                ++evictions_;
                --w;
            }
        }
        for (; w > 0; --w)
            set[w] = set[w - 1];
        set[0] = tag;
        return hit;
    }

    /** True iff the block of @p addr is present; no side effects. */
    bool
    probe(Addr addr) const
    {
        return find(addr) >= 0;
    }

    /** Invalidate the block of @p addr if present. */
    void
    invalidate(Addr addr)
    {
        Addr *set = &tags_[setBase(addr)];
        if (const int w = find(addr); w >= 0) {
            std::copy(set + w + 1, set + assoc_, set + w);
            set[assoc_ - 1] = invalid_tag;
        }
    }

    /** Invalidate every block (the counters stay). */
    void
    flushAll()
    {
        std::fill(tags_.begin(), tags_.end(), invalid_tag);
    }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t insertions() const { return insertions_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }

    /**
     * Register the hit and miss counters as @p prefix.hits and
     * @p prefix.misses, and with @p fills the insertion and eviction
     * counters too.
     */
    void
    registerStats(StatGroup &group, const std::string &prefix,
                  bool fills) const
    {
        group.registerCounter(prefix + ".hits", &hits_);
        group.registerCounter(prefix + ".misses", &misses_);
        if (!fills)
            return;
        group.registerCounter(prefix + ".insertions", &insertions_);
        group.registerCounter(prefix + ".evictions", &evictions_);
    }

    /**
     * Checkpoint body (ckpt_state.cc): the tags, in recency order, and
     * all four counters. On restore the geometry must match, and a set
     * whose valid tags do not form a prefix or repeat is fatal.
     */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    /** Marks an invalid way; never equal to a valid tag. */
    static constexpr Addr invalid_tag = ~Addr{0};
    static_assert(sizeof(Addr) == 8, "an LRU entry is one 8-byte tag");

    /** Index of the first way of @p addr's set. */
    std::uint64_t
    setBase(Addr addr) const
    {
        return ((addr >> indexShift_) & setMask_) *
               static_cast<std::uint64_t>(assoc_);
    }

    /** The way holding @p addr's block, or -1. */
    int
    find(Addr addr) const
    {
        const Addr tag = addr >> tagShift_;
        const Addr *set = &tags_[setBase(addr)];
        for (int w = 0; w < assoc_ && set[w] != invalid_tag; ++w)
            if (set[w] == tag)
                return w;
        return -1;
    }

    int assoc_;
    std::uint64_t setMask_;
    int indexShift_;
    int tagShift_;
    std::vector<Addr> tags_; ///< sets * assoc, row-major by set

    Counter hits_;
    Counter misses_;
    Counter insertions_;
    Counter evictions_;
};

} // namespace p5

#endif // P5SIM_MEM_LRU_ARRAY_HH
