/**
 * @file
 * The standard p5check invariant checkers.
 *
 * Each checker independently recomputes what the core's bookkeeping must
 * look like — from the paper's formulas and from conservation laws —
 * rather than trusting the component that produced the numbers:
 *
 *  - DecodeSlotChecker: the decode grant stream matches the R-1:1
 *    pattern of R = 2^(|PrioP - PrioS| + 1) (Sec. 3.2), including the
 *    priority-0/7 and low-power special cases;
 *  - GctChecker: per-thread GCT occupancies are conserved against the
 *    instruction windows, capacity is never exceeded, groups stay
 *    contiguous and retire in program order;
 *  - FlowChecker: decoded = committed + squashed + in-flight per thread,
 *    ready-queue entries and window phases agree, wake lists match the
 *    pending sources, nothing finishes before its result is due, FU
 *    busy counts stay within the pool;
 *  - MemChecker: LMQ occupancy and L1/LMQ/LSU counters cohere;
 *  - IpcChecker: the duplicated committed/executions accounting and the
 *    stats layer agree with the architectural state.
 *
 * Delta-based checks treat their first observation as a baseline, so a
 * checker may be attached to a core that has already run.
 */

#ifndef P5SIM_CHECK_CHECKERS_HH
#define P5SIM_CHECK_CHECKERS_HH

#include <array>
#include <cstdint>

#include "check/check.hh"
#include "common/types.hh"

namespace p5 {
class ThreadState;
} // namespace p5

namespace p5::check {

/** Per-thread counter snapshot used by the delta-based checkers. */
struct ThreadCounters
{
    std::uint64_t decoded = 0;
    std::uint64_t committed = 0;
    std::uint64_t committedCtr = 0;
    std::uint64_t squashed = 0;
    std::size_t windowSize = 0;
    std::uint64_t bindings = 0;
    bool attached = false;
};

/** Decode-slot conformance against the paper's R-1:1 formula. */
class DecodeSlotChecker : public InvariantChecker
{
  public:
    /**
     * Everything the checker needs to know about one decode cycle.
     * onCycle() derives it from the core; tests may build corrupted
     * observations and feed them to check() directly.
     */
    struct Observation
    {
        Cycle cycle = 0;
        int prioP = 0;
        int prioS = 0;
        int decodeWidth = 5;
        int minorityWidth = 2;
        int groupSize = 5;
        bool workConserving = false;

        /** This cycle's counter deltas, indexed by thread. */
        std::array<std::uint64_t, num_hw_threads> granted{};
        std::array<std::uint64_t, num_hw_threads> forfeited{};
        std::array<std::uint64_t, num_hw_threads> reassigned{};
        std::array<std::uint64_t, num_hw_threads> decoded{};
    };

    /** Expected slot ownership for one cycle (pure formula). */
    struct ExpectedGrant
    {
        ThreadId owner = -1; ///< -1: nobody owns the decode stage
        int maxWidth = 0;
    };

    /**
     * Independent recomputation of the decode-slot pattern (Sec. 3.2);
     * deliberately does not call DecodeSlotAllocator::grantAt().
     */
    static ExpectedGrant expectedGrant(int prio_p, int prio_s,
                                       Cycle cycle, int decode_width,
                                       int minority_width);

    /**
     * Slots in [begin, end) the formula assigns to each thread.
     * Computed from expectedGrant() per cycle-mod-64 residue class (the
     * pattern's period in every mode divides 64), so it is O(64) and
     * still independent of DecodeSlotAllocator.
     */
    static std::array<std::uint64_t, num_hw_threads>
    expectedOwnedInRange(int prio_p, int prio_s, int decode_width,
                         int minority_width, Cycle begin, Cycle end);

    const char *name() const override { return "decode-slot"; }
    void onCycle(const SmtCore &core, Cycle cycle) override;

    /**
     * Skip-aware mode: verify that the bulk counter deltas over the
     * skipped gap [from, to) are exactly what per-cycle checking would
     * have accepted — no grants, reassignments or decodes, and one
     * forfeit per formula-owned slot — then rebuild the rolling
     * R-window state for the partial window containing @p to.
     */
    void onSkip(const SmtCore &core, Cycle from, Cycle to) override;

    /** Test seam: validate one observation against the formula. */
    void check(const Observation &obs);

  private:
    void checkWindowConformance(const Observation &obs,
                                const ExpectedGrant &expect);
    void rebuildWindowAfterSkip(int prio_p, int prio_s, int decode_width,
                                int minority_width, Cycle from, Cycle to);

    std::array<std::uint64_t, num_hw_threads> prevGranted_{};
    std::array<std::uint64_t, num_hw_threads> prevForfeited_{};
    std::array<std::uint64_t, num_hw_threads> prevReassigned_{};
    std::array<std::uint64_t, num_hw_threads> prevDecoded_{};

    /** Rolling R-cycle window ownership accounting (Dual mode). */
    int winPrioP_ = -1;
    int winPrioS_ = -1;
    Cycle winObserved_ = 0; ///< cycles of the current window seen
    std::array<int, num_hw_threads> winOwned_{};
};

/** GCT conservation and program-order retirement. */
class GctChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "gct"; }
    void onCycle(const SmtCore &core, Cycle cycle) override;

  private:
    std::uint64_t prevAllocated_ = 0;
    std::uint64_t prevRetired_ = 0;
    std::array<bool, num_hw_threads> prevAttached_{};
    std::array<std::uint64_t, num_hw_threads> prevCommitted_{};
    std::array<SeqNum, num_hw_threads> prevFrontSeq_{};
    std::array<bool, num_hw_threads> prevHadFront_{};
};

/**
 * Dispatch/issue/commit flow conservation, ready-queue sanity, wake
 * lists and completion timing.
 */
class FlowChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "flow"; }
    void onCycle(const SmtCore &core, Cycle cycle) override;

  private:
    /**
     * Every wake edge names a live consumer younger than its producer,
     * no finished producer holds edges, and each Dispatched consumer
     * sits on exactly as many lists as it has pending sources.
     */
    void checkWakeLists(const ThreadState &ts, Cycle cycle);

    std::array<ThreadCounters, num_hw_threads> prev_{};
};

/** LMQ occupancy and memory-counter coherence. */
class MemChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "mem"; }
    void onCycle(const SmtCore &core, Cycle cycle) override;

  private:
    std::uint64_t prevL1Hits_ = 0;
    std::uint64_t prevL1Misses_ = 0;
    std::uint64_t prevL1Insertions_ = 0;
    std::uint64_t prevL1Evictions_ = 0;
    std::uint64_t prevLmqAllocations_ = 0;
    std::uint64_t prevLmqQueuedMisses_ = 0;
    std::array<std::uint64_t, num_hw_threads> prevThreadL1Misses_{};
    std::array<std::uint64_t, num_hw_threads> prevBeyondL2_{};
    std::array<std::uint64_t, num_hw_threads> prevLoads_{};
    std::uint64_t prevLevelLoads_ = 0;
};

/** Committed-IPC accounting vs the stats layer. */
class IpcChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "ipc"; }
    void onCycle(const SmtCore &core, Cycle cycle) override;

  private:
    std::array<ThreadCounters, num_hw_threads> prev_{};
};

} // namespace p5::check

#endif // P5SIM_CHECK_CHECKERS_HH
