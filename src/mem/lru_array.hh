/**
 * @file
 * Set-associative true-LRU array: the one storage primitive behind the
 * caches and the D-TLBs.
 *
 * An entry is {tag, lastUse}, 16 bytes. lastUse == 0 marks an invalid
 * entry; the recency clock starts at 1, so a valid entry never reads 0.
 * That encoding makes replacement one comparison: the entry with the
 * smallest lastUse is the first invalid way when there is one, else
 * the least recently used way. access() therefore finds, refreshes or
 * fills a block in a single walk of its set.
 */

#ifndef P5SIM_MEM_LRU_ARRAY_HH
#define P5SIM_MEM_LRU_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

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
     * @param tag_shift   tag = addr >> tag_shift
     */
    LruArray(std::uint64_t sets, int assoc, int index_shift, int tag_shift)
        : assoc_(assoc), setMask_(sets - 1), indexShift_(index_shift),
          tagShift_(tag_shift),
          entries_(sets * static_cast<std::uint64_t>(assoc))
    {
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
        Entry *set = setOf(addr);
        Entry *victim = set;
        for (int w = 0; w < assoc_; ++w) {
            Entry &e = set[w];
            if (e.tag == tag && e.lastUse != 0) {
                e.lastUse = ++clock_;
                ++hits_;
                return true;
            }
            if (e.lastUse < victim->lastUse)
                victim = &e;
        }
        ++misses_;
        ++insertions_;
        if (victim->lastUse != 0)
            ++evictions_;
        *victim = {tag, ++clock_};
        return false;
    }

    /** True iff the block of @p addr is present; no side effects. */
    bool
    probe(Addr addr) const
    {
        return find(addr) != nullptr;
    }

    /** Invalidate the block of @p addr if present. */
    void
    invalidate(Addr addr)
    {
        if (Entry *e = find(addr))
            e->lastUse = 0;
    }

    /** Invalidate every block (the counters and the clock stay). */
    void
    flushAll()
    {
        for (Entry &e : entries_)
            e.lastUse = 0;
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

    /** Serialize the entries, the recency clock and all four counters. */
    void saveState(class CkptWriter &w) const;

    /** Restore state saved by saveState(); geometry must match. */
    void restoreState(class CkptReader &r);

  private:
    struct Entry
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0; ///< 0: invalid
    };

    Entry *
    setOf(Addr addr)
    {
        return &entries_[((addr >> indexShift_) & setMask_) *
                         static_cast<std::uint64_t>(assoc_)];
    }

    /** The valid entry holding @p addr's block, or nullptr. */
    Entry *
    find(Addr addr)
    {
        const Addr tag = addr >> tagShift_;
        Entry *set = setOf(addr);
        for (int w = 0; w < assoc_; ++w)
            if (set[w].tag == tag && set[w].lastUse != 0)
                return &set[w];
        return nullptr;
    }

    const Entry *
    find(Addr addr) const
    {
        return const_cast<LruArray *>(this)->find(addr);
    }

    int assoc_;
    std::uint64_t setMask_;
    int indexShift_;
    int tagShift_;
    std::vector<Entry> entries_; ///< sets * assoc, row-major by set
    std::uint64_t clock_ = 0;

    Counter hits_;
    Counter misses_;
    Counter insertions_;
    Counter evictions_;
};

} // namespace p5

#endif // P5SIM_MEM_LRU_ARRAY_HH
