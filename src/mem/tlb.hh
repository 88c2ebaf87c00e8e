/**
 * @file
 * Per-thread data TLB model.
 *
 * A miss costs a table walk (latency configured in TlbParams). The paper's
 * ldint_mem benchmark strides across pages, so its DRAM misses are
 * compounded by walks — one of the reasons its measured IPC is as low as
 * 0.02 — and the POWER5 balancer uses TLB-miss thresholds as one of its
 * unbalance triggers (Sec. 3.1).
 */

#ifndef P5SIM_MEM_TLB_HH
#define P5SIM_MEM_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotate.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace p5 {

/** TLB geometry and timing. */
struct P5_CONFIG_STRUCT TlbParams
{
    // Display label, not simulated state (see CacheParams::name).
    P5_ALLOW(config_completeness) std::string name = "dtlb";
    int entries = 1024;
    int assoc = 4;
    std::uint64_t pageBytes = 4096;
    int walkLatency = 150;
};

/** Result of a TLB access. */
struct TlbResult
{
    bool hit = true;
    int latency = 0; ///< extra cycles (0 on hit, walkLatency on miss)
};

/** Set-associative TLB with LRU replacement. */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /** Translate @p addr: fills on miss and charges the walk. */
    TlbResult access(Addr addr);

    /** True iff the page of @p addr is cached; no side effects. */
    bool probe(Addr addr) const;

    /** Drop all entries (e.g. on a context switch). */
    void flushAll();

    const TlbParams &params() const { return params_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    void registerStats(StatGroup &group) const;

    /** Serialize entries, recency clock and counters. */
    void saveState(class CkptWriter &w) const;

    /** Restore state saved by saveState(); geometry must match. */
    void restoreState(class CkptReader &r);

  private:
    struct Entry
    {
        std::uint64_t vpn = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t setIndex(std::uint64_t vpn) const;

    TlbParams params_;
    std::uint64_t numSets_;
    int pageShift_; ///< log2(pageBytes): address to virtual page number
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;

    Counter hits_;
    Counter misses_;
};

} // namespace p5

#endif // P5SIM_MEM_TLB_HH
