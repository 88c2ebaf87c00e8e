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

#include "common/annotate.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/lru_array.hh"

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

/** Set-associative TLB with LRU replacement: an LruArray of pages. */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /** Translate @p addr: fills on miss and charges the walk. */
    TlbResult
    access(Addr addr)
    {
        if (pages_.access(addr))
            return {true, 0};
        return {false, params_.walkLatency};
    }

    /** True iff the page of @p addr is cached; no side effects. */
    bool probe(Addr addr) const { return pages_.probe(addr); }

    /** Drop all entries (e.g. on a context switch). */
    void flushAll() { pages_.flushAll(); }

    const TlbParams &params() const { return params_; }
    std::uint64_t hits() const { return pages_.hits(); }
    std::uint64_t misses() const { return pages_.misses(); }
    /** Fill counters: outside the stat set, so not checkpointed. */
    std::uint64_t insertions() const { return pages_.insertions(); }
    std::uint64_t evictions() const { return pages_.evictions(); }

    /** Register the hit and miss counters, a TLB's whole stat set. */
    void
    registerStats(StatGroup &group) const
    {
        pages_.registerStats(group, params_.name, false);
    }

    /** Checkpoint body (ckpt_state.cc): entries and counters. */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    TlbParams params_;
    LruArray pages_; ///< tagged by the full virtual page number
};

} // namespace p5

#endif // P5SIM_MEM_TLB_HH
