/**
 * @file
 * Set-associative cache model with true-LRU replacement.
 *
 * p5sim uses a latency model rather than a message-passing memory system:
 * a lookup tells you whether the line is present (updating recency), an
 * insert victimizes the LRU way, and a per-cache service-bandwidth gate
 * (minimum gap between serviced requests) models port/bank contention —
 * which is what makes two co-running memory-bound threads slow each other
 * down as in the paper's Table 3.
 */

#ifndef P5SIM_MEM_CACHE_HH
#define P5SIM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotate.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace p5 {

/** Geometry and timing of one cache level. */
struct P5_CONFIG_STRUCT CacheParams
{
    // Display label, not simulated state: set per level by
    // HierarchyParams, never a config path of its own.
    P5_ALLOW(config_completeness) std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    int assoc = 4;
    int lineBytes = 128;
    int hitLatency = 2;

    /**
     * Minimum number of cycles between two requests *serviced by* this
     * level (i.e. misses from above that hit here). Models limited
     * fill/port bandwidth.
     */
    int serviceGap = 1;
};

/** One level of set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up @p addr; on a hit the line becomes most-recently-used.
     *
     * @return true on hit.
     */
    bool lookup(Addr addr);

    /** True iff @p addr is present; does not touch recency or stats. */
    bool probe(Addr addr) const;

    /** Insert the line containing @p addr, evicting LRU if needed. */
    void insert(Addr addr);

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr);

    /** Drop all lines and reset the bandwidth gate (not the stats). */
    void flushAll();

    /**
     * Reserve a service slot for a request issued at @p now that
     * becomes serviceable at @p ready (>= now when the requester is
     * still translating); returns the cycle service actually starts.
     * Capacity is consumed in request order, so a far-future request
     * cannot block earlier ones.
     */
    Cycle reserveService(Cycle now, Cycle ready);

    const CacheParams &params() const { return params_; }
    std::uint64_t numSets() const { return numSets_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t insertions() const { return insertions_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }

    /** Register this cache's statistics into @p group. */
    void registerStats(StatGroup &group) const;

    /** Serialize lines, recency clock, bandwidth gate and counters. */
    void saveState(class CkptWriter &w) const;

    /** Restore state saved by saveState(); geometry must match. */
    void restoreState(class CkptReader &r);

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheParams params_;
    std::uint64_t numSets_;
    int lineShift_; ///< log2(lineBytes): address to line number
    int tagShift_;  ///< log2(lineBytes * numSets_): address to tag
    std::vector<Line> lines_; // numSets_ * assoc, row-major by set
    std::uint64_t useClock_ = 0;
    Cycle nextFree_ = 0;

    Counter hits_;
    Counter misses_;
    Counter insertions_;
    Counter evictions_;
};

} // namespace p5

#endif // P5SIM_MEM_CACHE_HH
