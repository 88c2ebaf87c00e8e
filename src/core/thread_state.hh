/**
 * @file
 * Per-hardware-thread state: instruction window, rename map, stream
 * position, squash epoch and retirement accounting.
 */

#ifndef P5SIM_CORE_THREAD_STATE_HH
#define P5SIM_CORE_THREAD_STATE_HH

#include <memory>

#include "common/ring_deque.hh"
#include "common/small_vector.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "prio/priority.hh"
#include "program/stream.hh"

namespace p5 {

/**
 * Handle to an in-flight instruction: a physical window-slot hint plus
 * the (seq, epoch) identity that validates it. Resolution is an O(1)
 * slot access on the hot path; when the hint misses (the slot was
 * reused, or the ring re-layouted on growth) resolve() falls back to
 * the seq-indexed lookup, so a handle is never wrong — at worst slow.
 */
struct InFlightRef
{
    std::uint32_t slot = 0;
    SeqNum seq = 0;
    std::uint64_t epoch = 0;
};

/** One in-flight instruction plus its dataflow bookkeeping. */
struct InFlight
{
    DynInstr di;
    InstrPhase phase = InstrPhase::Dispatched;

    /** Source operands still waiting for a producer. */
    int pendingSrcs = 0;

    /** Squash epoch this entry was dispatched in. */
    std::uint64_t epoch = 0;

    /** Global dispatch stamp: age priority for oldest-first issue. */
    std::uint64_t stamp = 0;

    /** Guard against double-insertion into the ready queues. */
    bool inReadyQueue = false;

    /** Handle of the GCT group holding this instruction (Gct::allocate). */
    std::uint32_t gctGroup = 0;

    /**
     * Same-thread consumers to wake on completion. Inline for the
     * common fan-out; a spill's buffer stays with the pooled window
     * slot, and attach() pre-warms every slot to @ref
     * dependents_reserve, so steady-state dispatch never allocates.
     */
    SmallVector<InFlightRef, 4> dependents;
};

/**
 * Pre-warmed wakeup-list capacity per pooled window slot: double the
 * largest fan-out observed across the paper's micro-benchmarks (~30,
 * a loop-carried value read by every consumer dispatched before it
 * completes).
 */
inline constexpr std::size_t dependents_reserve = 64;

/** Rename-map entry: the youngest producer of an architectural reg. */
struct RenameEntry
{
    bool valid = false;
    SeqNum seq = 0;
    std::uint64_t epoch = 0;
};

/** All per-thread state of one SMT core. */
class ThreadState
{
  public:
    explicit ThreadState(ThreadId tid) : tid_(tid) {}

    /**
     * Bind an instruction source; resets window, rename state and
     * accounting. @p window_capacity pre-sizes the in-flight ring (the
     * core passes its GCT bound) so the window never re-layouts
     * mid-run; 0 keeps the current capacity and grows on demand.
     */
    void attach(const InstrSource *source,
                std::size_t window_capacity = 0);

    /** Unbind; the thread decodes nothing afterwards. */
    void detach();

    bool attached() const { return stream_ != nullptr; }
    InstrStream &stream() { return *stream_; }
    const InstrStream &stream() const { return *stream_; }
    ThreadId tid() const { return tid_; }

    /** The in-flight window, oldest first (pooled ring slots). */
    RingDeque<InFlight> window;

    /** Rename map over the flat architectural register space. */
    RenameEntry renameMap[num_arch_regs];

    /** Current squash epoch (bumped by every squash). */
    std::uint64_t epoch = 0;

    /** Decode is blocked until this cycle (redirect penalty). */
    Cycle decodeBlockedUntil = 0;

    /** Privilege the thread's software runs at (for or-nops). */
    PrivilegeLevel privilege = PrivilegeLevel::User;

    /** Find the in-flight entry with @p seq, or nullptr. */
    InFlight *find(SeqNum seq);

    /** find() with an epoch identity check. */
    InFlight *find(SeqNum seq, std::uint64_t expected_epoch);

    /**
     * Resolve a handle: O(1) slot access validated by (seq, epoch),
     * with the seq-indexed lookup as the miss fallback. nullptr when
     * the instruction is gone (committed or squashed).
     */
    InFlight *
    resolve(const InFlightRef &ref)
    {
        InFlight *e = window.liveAtPhys(ref.slot);
        if (e && e->di.seq == ref.seq && e->epoch == ref.epoch)
            return e;
        return find(ref.seq, ref.epoch);
    }

    /** The handle of a live window entry. */
    InFlightRef
    refOf(const InFlight &e) const
    {
        return {window.physIndexOf(&e), e.di.seq, e.epoch};
    }

    /**
     * Rebuild the rename map from the surviving window after a squash
     * (youngest surviving producer of each register wins).
     */
    void rebuildRenameMap();

    /** Retirement accounting. */
    std::uint64_t committed = 0;

    /** Completed program executions (committed / instrsPerExecution). */
    std::uint64_t executionsCompleted = 0;

    /** Cycle at which the last completed execution retired. */
    Cycle lastExecutionCycle = 0;

    /** Counters for stats. */
    Counter committedCtr;
    Counter squashedCtr;
    Counter mispredictsCtr;
    Counter prioNopsApplied;
    Counter prioNopsIgnored;

    /**
     * Serialize the complete per-thread state: the window ring's
     * physical layout (every slot verbatim, vacant ones included, so
     * slot handles recorded in the ready/completion queues stay valid
     * after restore), rename map, epoch/accounting scalars, stream
     * cursor and counters.
     */
    void saveState(class CkptWriter &w) const;

    /**
     * Restore state saved by saveState(). @pre attach() was already
     * called with the same program and window capacity — restore
     * overwrites position and window contents but not the binding.
     */
    void restoreState(class CkptReader &r);

  private:
    ThreadId tid_;
    std::unique_ptr<InstrStream> stream_;
};

} // namespace p5

#endif // P5SIM_CORE_THREAD_STATE_HH
