/**
 * @file
 * Set-associative cache model with true-LRU replacement.
 *
 * p5sim uses a latency model rather than a message-passing memory system:
 * an access tells you whether the line was present and fills it if not
 * (one walk of the set, see LruArray), and a per-cache service-bandwidth
 * gate (minimum gap between serviced requests) models port/bank
 * contention — which is what makes two co-running memory-bound threads
 * slow each other down as in the paper's Table 3.
 */

#ifndef P5SIM_MEM_CACHE_HH
#define P5SIM_MEM_CACHE_HH

#include <cstdint>
#include <string>

#include "common/annotate.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/lru_array.hh"

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

/** One level of set-associative cache: an LruArray of lines plus a
 *  service-bandwidth gate. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up @p addr and fill it on a miss (see LruArray::access).
     *
     * @return true on hit.
     */
    bool access(Addr addr) { return lines_.access(addr); }

    /** True iff @p addr is present; does not touch recency or stats. */
    bool probe(Addr addr) const { return lines_.probe(addr); }

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr) { lines_.invalidate(addr); }

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

    std::uint64_t hits() const { return lines_.hits(); }
    std::uint64_t misses() const { return lines_.misses(); }
    std::uint64_t insertions() const { return lines_.insertions(); }
    std::uint64_t evictions() const { return lines_.evictions(); }

    /** Register this cache's statistics into @p group. */
    void
    registerStats(StatGroup &group) const
    {
        lines_.registerStats(group, params_.name, true);
    }

    /** Checkpoint body (ckpt_state.cc): lines, counters, bandwidth gate. */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    CacheParams params_;
    LruArray lines_;
    Cycle nextFree_ = 0;
};

} // namespace p5

#endif // P5SIM_MEM_CACHE_HH
