/**
 * @file
 * Cache hierarchy: per-core L1D + D-TLBs in front of a (possibly shared)
 * L2/L3/DRAM backside.
 *
 * POWER5-ish defaults: 32 KiB 4-way L1D (2 cycles), 1.875 MiB 10-way L2
 * (13 cycles), 36 MiB 12-way L3 (87 cycles), DRAM at 230 cycles. On the
 * real chip L2, L3 and memory are shared by both cores; p5sim models that
 * by letting two CacheHierarchy front-ends share one MemBackside. Each
 * level below L1 has a service-bandwidth gate, so co-running memory-bound
 * threads contend — the effect behind the paper's Table 3 degradations.
 */

#ifndef P5SIM_MEM_HIERARCHY_HH
#define P5SIM_MEM_HIERARCHY_HH

#include <array>
#include <memory>

#include "common/annotate.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace p5 {

/** The level that serviced a memory access. */
enum class MemLevel : std::uint8_t { L1, L2, L3, Mem };

/** Human-readable level name. */
const char *memLevelName(MemLevel level);

/** Hierarchy configuration. */
struct P5_CONFIG_STRUCT HierarchyParams
{
    CacheParams l1d{"l1d", 32 * 1024, 4, 128, 2, 1};
    CacheParams l2{"l2", 2 * 1024 * 1024, 16, 128, 13, 4};
    CacheParams l3{"l3", 32 * 1024 * 1024, 16, 256, 87, 10};
    TlbParams tlb{"dtlb", 1024, 4, 4096, 150};
    int dramLatency = 230;
    int dramServiceGap = 24;
};

/** Timing outcome of one data access. */
struct MemAccessResult
{
    /** Cycle the data is available (load) / the access retires (store). */
    Cycle doneCycle = 0;
    MemLevel level = MemLevel::L1;
    bool tlbMiss = false;
};

/**
 * The L2/L3/DRAM side of the memory system, shared chip-wide.
 */
class MemBackside
{
  public:
    explicit MemBackside(const HierarchyParams &params);

    /**
     * Walk L2, then L3, for an L1 miss and fill the line into both
     * (inclusive); returns the level that held it.
     */
    MemLevel walk(Addr addr);

    /**
     * Cycle the data of a miss serviced at @p level (L2, L3 or Mem)
     * arrives, for a request issued at @p now that becomes serviceable
     * at @p ready (>= now; later when translation is still walking).
     * Applies that level's service-bandwidth gate; touches no lines.
     */
    Cycle serve(MemLevel level, Cycle now, Cycle ready);

    /** Drop all cached state and bandwidth gates (not stats). */
    void flushAll();

    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }

    void registerStats(StatGroup &group) const;

    /** Checkpoint body (ckpt_state.cc): L2, L3, DRAM bandwidth gate. */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    HierarchyParams params_;
    Cache l2_;
    Cache l3_;
    Cycle dramNextFree_ = 0;
};

/** The per-core front-end (L1D + per-thread D-TLBs) of the hierarchy. */
class CacheHierarchy
{
  public:
    /**
     * @param shared backside to share with other cores, or nullptr to
     *        own a private one.
     */
    explicit CacheHierarchy(const HierarchyParams &params,
                            MemBackside *shared = nullptr);

    /**
     * Perform a data access for thread @p tid at cycle @p now: the
     * TLB, the line walk and the timing step in one call, charging
     * the TLB walk inline. (The core's LSU calls walk() and serve()
     * itself, since it arbitrates table walks and LMQ entries.)
     */
    MemAccessResult access(ThreadId tid, Addr addr, Cycle now);

    /**
     * Walk the levels for @p tid's access to @p addr, filling every
     * level on the way back (inclusive hierarchy; stores write-allocate
     * like loads), and count the thread's L1 and L2 misses. Returns
     * the level that held the line.
     */
    MemLevel walk(ThreadId tid, Addr addr);

    /**
     * Cycle an access serviced at @p level completes, issued at @p now
     * and serviceable at @p ready: the L1 hit latency, or the
     * backside's gated service (MemBackside::serve).
     */
    Cycle serve(MemLevel level, Cycle now, Cycle ready);

    /** Drop all cached state (lines, TLB entries, bandwidth gates). */
    void flushAll();

    Cache &l1d() { return l1d_; }
    const Cache &l1d() const { return l1d_; }
    MemBackside &backside() { return *backside_; }

    /** True iff the backside is this hierarchy's own (checkpointable). */
    bool ownsBackside() const { return backside_ == ownedBackside_.get(); }
    Tlb &tlb(ThreadId tid) { return *tlbs_[static_cast<size_t>(tid)]; }

    const HierarchyParams &params() const { return params_; }

    /** Per-thread event counts, used by the balancer and stats. */
    std::uint64_t
    tlbMissesOf(ThreadId tid) const
    {
        return tlbMisses_[static_cast<size_t>(tid)].value();
    }
    std::uint64_t
    l1MissesOf(ThreadId tid) const
    {
        return l1Misses_[static_cast<size_t>(tid)].value();
    }
    /** Accesses that missed in L2 (serviced by L3 or DRAM). */
    std::uint64_t
    beyondL2Of(ThreadId tid) const
    {
        return beyondL2_[static_cast<size_t>(tid)].value();
    }

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint body (ckpt_state.cc): L1D, both TLBs, the backside
     * through backside_ and the per-thread miss counters. @pre the
     * backside is private to this hierarchy (checkpointing rejects
     * shared-backside chips).
     */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    HierarchyParams params_;
    Cache l1d_;
    std::array<std::unique_ptr<Tlb>, num_hw_threads> tlbs_;
    std::unique_ptr<MemBackside> ownedBackside_;
    MemBackside *backside_;

    std::array<Counter, num_hw_threads> tlbMisses_;
    std::array<Counter, num_hw_threads> l1Misses_;
    std::array<Counter, num_hw_threads> beyondL2_;
};

} // namespace p5

#endif // P5SIM_MEM_HIERARCHY_HH
