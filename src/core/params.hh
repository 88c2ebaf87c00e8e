/**
 * @file
 * Configuration of one SMT core (POWER5-flavoured defaults).
 */

#ifndef P5SIM_CORE_PARAMS_HH
#define P5SIM_CORE_PARAMS_HH

#include <cstdint>
#include <string>

#include "branch/bht.hh"
#include "common/annotate.hh"
#include "common/log.hh"
#include "isa/op_class.hh"
#include "mem/hierarchy.hh"

namespace p5 {

/** Which corrective action the dynamic resource balancer takes. */
enum class BalanceAction
{
    Stall, ///< stop decoding the offending thread until congestion clears
    Flush  ///< additionally flush the offender's not-yet-issued instrs
};

/** Dynamic hardware resource-balancing configuration (paper Sec. 3.1). */
struct P5_CONFIG_STRUCT BalancerParams
{
    bool enabled = true;

    /**
     * A thread holding more than this fraction of occupied GCT groups
     * (and more than minGctGroups groups) is considered offending.
     */
    double gctShareThreshold = 0.55;

    /**
     * Scale each thread's GCT-share threshold by its decode-slot share
     * (2 x share, clamped below): a software-deprioritized thread is
     * allowed proportionally fewer GCT groups before it counts as
     * offending. This couples the hardware balancing with the
     * software priorities, which is what lets a prioritized thread's
     * instruction window — and so its latency-hiding — recover.
     */
    bool priorityAwareGct = true;

    /** Clamp range for the priority-scaled GCT threshold. */
    double minGctShareThreshold = 0.20;
    double maxGctShareThreshold = 0.85;

    /**
     * Scale the LMQ threshold with the decode-slot share as well: a
     * thread entitled to nearly all decode slots may fill the LMQ
     * before counting as offending.
     */
    bool priorityAwareLmq = true;

    /** GCT groups a thread may always hold without being offending. */
    int minGctGroups = 2;

    /** LMQ entries held by one thread that count as "too many L2
     *  misses". */
    int lmqThreshold = 6;

    /** Block decode of a thread with an outstanding TLB walk. */
    bool blockOnTlbMiss = true;

    BalanceAction action = BalanceAction::Stall;
};

/** Full configuration of one SMT core. */
struct P5_CONFIG_STRUCT CoreParams
{
    /** Identity of this core on the chip (affects address spaces). */
    int coreId = 0;

    /** Decode width: instructions per decode slot (one thread/cycle). */
    int decodeWidth = 5;

    /**
     * Instructions deliverable in the single slot the *lower*-priority
     * thread of an unequal pair receives. Real POWER5 measurements
     * (paper Sec. 5.2: up to 42x slowdown at -5, i.e. ~2 instructions
     * per 64-cycle window) show the starved thread's slots deliver far
     * fewer than decodeWidth IOPs; calibrated to 2. Set to decodeWidth
     * to ablate.
     */
    int minoritySlotWidth = 2;

    /** Max instructions per GCT group (group == dispatch unit). */
    int groupSize = 5;

    /** Shared GCT (reorder buffer) capacity in groups. */
    int gctGroups = 20;

    /** Functional units: 2 FX, 2 FP, 2 LS, 1 BR as on POWER5. */
    int fuCount[static_cast<int>(FuClass::NumFuClasses)] = {2, 2, 2, 1, 0};

    /** Load-miss-queue entries shared by both threads. */
    int lmqEntries = 8;

    /** Decode-redirect delay after a mispredicted branch. */
    int mispredictPenalty = 7;

    /**
     * Cycles an instruction of each class occupies its functional unit
     * before another may issue to it (issue-to-issue). Latency itself
     * comes from opLatency()/the memory system.
     */
    int fuOccupancy(OpClass oc) const;

    /**
     * Give a decode slot forfeited by its owner (stalled / blocked /
     * nothing to decode) to the sibling thread. Real POWER5 slots are
     * strictly owned; this is an ablation knob.
     */
    bool workConservingSlots = false;

    /** Per-thread address-space separation (bits). */
    int asidShift = 44;

    /**
     * Schedule the shared table-walk engine by thread priority like the
     * decode slots (see Lsu::reserveWalker). Ablation knob for the
     * mem-vs-mem priority sensitivity of Figs. 2(f)/3(f).
     */
    bool priorityAwareWalker = true;

    /**
     * While the walker is servicing one thread's translation it ties up
     * LSU resources: the *sibling's* loads/stores serialize through a
     * port gate of this many cycles each. This is what crushes a
     * load-hot thread (ldint_l1) co-run with a TLB-missing sibling at
     * equal priorities (paper Table 3: pt 0.79 vs ST 2.29) and what
     * prioritization then wins back (Fig. 4's ~2x total-IPC gains).
     * 0 disables the effect.
     */
    int walkerPortGap = 2;

    /**
     * Skip idle cycles in SmtCore::run(): when no thread can decode and
     * nothing can issue or commit, jump straight to the earliest
     * component event instead of ticking through the gap. Stall, slot
     * and balancer counters are advanced arithmetically, so every
     * observable stat is bit-identical to cycle-by-cycle ticking — the
     * knob exists as an escape hatch (--set core.fast_forward=false)
     * and for the equivalence tests, not because results differ.
     */
    bool fastForward = true;

    BalancerParams balancer;
    HierarchyParams mem;
    BhtParams bht;

    /** Sanity-check the configuration: "" when sound, else the reason. */
    std::string tryValidate() const;

    /** tryValidate(), fatal on error. */
    void validate() const { fatalOn(tryValidate()); }
};

} // namespace p5

#endif // P5SIM_CORE_PARAMS_HH
