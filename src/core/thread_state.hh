/**
 * @file
 * Per-hardware-thread state: instruction window, rename map, stream
 * position, squash epoch and retirement accounting.
 */

#ifndef P5SIM_CORE_THREAD_STATE_HH
#define P5SIM_CORE_THREAD_STATE_HH

#include <array>
#include <memory>

#include "common/ring_deque.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "prio/priority.hh"
#include "program/stream.hh"

namespace p5 {

/** End of a wake list: no further edge. */
inline constexpr std::uint32_t no_wake_edge = ~std::uint32_t{0};

/** One in-flight instruction plus its dataflow bookkeeping. */
struct InFlight
{
    DynInstr di;
    InstrPhase phase = InstrPhase::Dispatched;

    /** Guard against double-insertion into the ready queues. */
    bool inReadyQueue = false;

    /** Source operands still waiting for a producer. */
    int pendingSrcs = 0;

    /** Squash epoch this entry was dispatched in. */
    std::uint64_t epoch = 0;

    /** Global dispatch stamp: age priority for oldest-first issue. */
    std::uint64_t stamp = 0;

    /** Handle of the GCT group holding this instruction (Gct::allocate). */
    std::uint32_t gctGroup = 0;

    /**
     * Intrusive wake list (DESIGN §8). Each waiting source operand of a
     * consumer is one edge, numbered consumer window slot * 2 + k for
     * its source k. wakeHead is the youngest edge waiting on this
     * instruction's result; wakeNext[k] links the edge of this
     * instruction's source k to the next (older) edge of the same
     * producer's list. Only Dispatched, non-nop consumers are linked.
     */
    std::uint32_t wakeHead = no_wake_edge;
    std::array<std::uint32_t, 2> wakeNext{no_wake_edge, no_wake_edge};
};

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
     * accounting, but not the squash epoch (see detach()). The window
     * ring is sized once here to @p window_capacity (the core passes
     * its GCT bound) and never re-layouts, so a window slot names one
     * place for the whole binding.
     */
    void attach(const InstrSource *source, std::size_t window_capacity);

    /**
     * Unbind; the thread decodes nothing afterwards. Bumps the epoch,
     * so no handle minted before the detach validates against a
     * program attached later.
     */
    void detach();

    bool attached() const { return stream_ != nullptr; }
    InstrStream &stream() { return *stream_; }
    const InstrStream &stream() const { return *stream_; }
    ThreadId tid() const { return tid_; }

    /** The in-flight window, oldest first (pooled ring slots). */
    RingDeque<InFlight> window;

    /** Rename map over the flat architectural register space. */
    RenameEntry renameMap[num_arch_regs];

    /** Current squash epoch (bumped by every squash and detach). */
    std::uint64_t epoch = 0;

    /** Decode is blocked until this cycle (redirect penalty). */
    Cycle decodeBlockedUntil = 0;

    /** Privilege the thread's software runs at (for or-nops). */
    PrivilegeLevel privilege = PrivilegeLevel::User;

    /** The in-flight entry with @p seq and @p epoch, or nullptr. */
    InFlight *
    find(SeqNum seq, std::uint64_t expected_epoch)
    {
        if (window.empty() || seq < window.front().di.seq)
            return nullptr;
        const std::uint64_t idx = seq - window.front().di.seq;
        if (idx >= window.size())
            return nullptr;
        InFlight &e = window[static_cast<std::size_t>(idx)];
        return e.epoch == expected_epoch ? &e : nullptr;
    }

    /**
     * Resolve a (window slot, seq, epoch) handle: the slot is exact
     * because the ring never re-layouts, and (seq, epoch) reject a
     * slot reused since the handle was taken. nullptr when the
     * instruction is gone (committed, squashed or detached).
     */
    InFlight *
    resolve(std::uint32_t slot, SeqNum seq, std::uint64_t epoch)
    {
        InFlight *e = window.liveAtPhys(slot);
        if (e && e->di.seq == seq && e->epoch == epoch)
            return e;
        return nullptr;
    }

    /** Push the edge of @p consumer_slot's source @p k on @p producer. */
    void
    linkWake(InFlight &producer, std::uint32_t consumer_slot, int k)
    {
        const auto ki = static_cast<std::uint32_t>(k);
        window.slotAt(consumer_slot).wakeNext[ki] = producer.wakeHead;
        producer.wakeHead = consumer_slot * 2 + ki;
    }

    /** The consumer named by wake edge @p edge. */
    InFlight &
    wakeConsumer(std::uint32_t edge)
    {
        return window.slotAt(edge >> 1);
    }

    /** The edge after @p edge in its producer's wake list. */
    std::uint32_t
    nextWake(std::uint32_t edge) const
    {
        return window.slotAt(edge >> 1).wakeNext[edge & 1];
    }

    /**
     * Repair after a squash or flush popped the youngest entries:
     * rebuild the rename map from the surviving window (youngest
     * surviving producer of each register wins) and, in the same walk,
     * cut each surviving producer's wake list down to live consumers.
     * The squashed consumers were the youngest, and wake lists are
     * youngest first, so they are exactly a prefix of each list.
     */
    void repairAfterSquash();

    /**
     * Re-derive every wake list and the rename map from the window
     * alone: replay the rename order oldest first and link each
     * Dispatched, non-nop consumer's source to its youngest older
     * producer that has not finished. Checkpoint restore uses this; the
     * lists come out as dispatch built them. The map names each
     * register's youngest producer in the window and is invalid where
     * there is none. Dispatch reads an entry only through find(), which
     * is null for a committed producer, so such an entry of the live
     * map acts exactly like an invalid one.
     */
    void rebuildFromWindow();

    /**
     * Times attach() bound a source. A detach drops the window without
     * counting it squashed, so observers use this to tell a re-bound
     * thread from one that kept running.
     */
    std::uint64_t bindings = 0;

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
     * Checkpoint body (ckpt_state.cc): the per-thread primary state —
     * the window ring's head index and its live entries oldest-first
     * (restore puts each back in its physical slot, so slot handles
     * recorded in the ready/completion queues stay valid),
     * epoch/accounting scalars, stream cursor and counters. A restore
     * needs attach() to have been called with the same program and
     * window capacity: it overwrites position and window contents but
     * not the binding, and rebuilds the wake lists and the rename map
     * with rebuildFromWindow().
     */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    ThreadId tid_;
    std::unique_ptr<InstrStream> stream_;
};

} // namespace p5

#endif // P5SIM_CORE_THREAD_STATE_HH
