/**
 * @file
 * Architectural-state serialization for every checkpointable component.
 *
 * Each component has one checkpoint body, `ckpt(self, io)`, a static
 * member template over the stream: run with a CkptWriter (self const)
 * it saves, run with a CkptReader it restores, so every field list
 * exists once and save and restore cannot drift apart. What only a
 * restore does sits under `if constexpr (Io::restoring)`, in stream
 * order: the validity checks and the rebuild of derived state. All
 * bodies live in this one translation unit so the complete set of
 * bytes that enters a checkpoint can be audited in a single place (the
 * p5lint determinism rule points here). Two contracts hold throughout:
 *
 *  1. The stream is a pure function of simulated state. Every field is
 *     written in a fixed order through CkptWriter's little-endian
 *     primitives, individually or, for an array of plain words or
 *     bytes (the LRU tags, the BHT counters), as one bulk copy; no
 *     struct is ever written via memcpy (padding bytes are
 *     indeterminate) and no unordered container is ever iterated
 *     (there are none in the saved state — heaps and the sorted ready
 *     arrays are explicit vectors, maps are std::map).
 *
 *  2. The stream holds primary state only, so save(restore(image))
 *     reproduces the image byte for byte. What the core can derive is
 *     rebuilt on restore instead: the window's wake lists and rename
 *     map, the GCT groups' unfinished counts and window handles, and
 *     the LMQ's busy counts and edges. Physical layout survives where
 *     physical-slot handles point into it: the window ring's head index
 *     is saved, and live entry i goes back to slot (head + i) & mask, so
 *     the handles in ready-queue and completion-heap entries resolve to
 *     the same slots. Vacant slots are not saved; nothing reads one
 *     before dispatch overwrites it. Structures nothing points into (GCT
 *     group rings) are saved logically.
 *
 * Configuration is deliberately NOT in the stream: a checkpoint is only
 * ever restored into a core built with the same params and programs,
 * which the warm-phase fingerprint in the checkpoint key guarantees.
 * Geometry fields (CkptReader::geom) double as sanity checks and
 * fatal() on mismatch.
 */

#include <algorithm>

#include "branch/bht.hh"
#include "check/check.hh"
#include "ckpt/ckpt_io.hh"
#include "ckpt/state_walk.hh"
#include "common/log.hh"
#include "core/balancer.hh"
#include "core/decode_arbiter.hh"
#include "core/fu_pool.hh"
#include "core/gct.hh"
#include "core/issue_queue.hh"
#include "core/lsu.hh"
#include "core/smt_core.hh"
#include "core/thread_state.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/lmq.hh"
#include "mem/lru_array.hh"
#include "mem/tlb.hh"

namespace p5 {

namespace {

/** Every counter of each of @p arrays, array by array. */
template <class Io, class... Arrays>
void
counterArrays(Io &io, Arrays &...arrays)
{
    const auto one = [&io](auto &counters) {
        for (auto &c : counters)
            io.counter(c);
    };
    (one(arrays), ...);
}

} // namespace

// --- LruArray / Cache / Tlb -----------------------------------------

template <class Self, class Io>
void
LruArray::ckpt(Self &self, Io &io)
{
    io.geom("LRU array entries", self.tags_.size());
    io.u64s(self.tags_);
    if constexpr (Io::restoring) {
        // Recency is the way order, so a set must hold its valid tags
        // as a prefix, each once; anything else is no state access()
        // can reach.
        const int assoc = self.assoc_;
        for (std::size_t base = 0; base < self.tags_.size();
             base += assoc) {
            const Addr *set = &self.tags_[base];
            int valid = 0;
            while (valid < assoc && set[valid] != invalid_tag)
                ++valid;
            for (int w = valid; w < assoc; ++w)
                if (set[w] != invalid_tag)
                    fatal("checkpoint LRU set %zu has a valid tag after "
                          "an invalid way",
                          base / assoc);
            for (int w = 1; w < valid; ++w)
                if (std::find(set, set + w, set[w]) != set + w)
                    fatal("checkpoint LRU set %zu holds a tag twice",
                          base / assoc);
        }
    }
    io.counter(self.hits_);
    io.counter(self.misses_);
    io.counter(self.insertions_);
    io.counter(self.evictions_);
}

template void LruArray::ckpt(const LruArray &, CkptWriter &);
template void LruArray::ckpt(LruArray &, CkptReader &);

template <class Self, class Io>
void
Cache::ckpt(Self &self, Io &io)
{
    LruArray::ckpt(self.lines_, io);
    io.u64(self.nextFree_, field::readyAt);
}

template <class Self, class Io>
void
Tlb::ckpt(Self &self, Io &io)
{
    LruArray::ckpt(self.pages_, io);
}

// --- Bht --------------------------------------------------------------

template <class Self, class Io>
void
Bht::ckpt(Self &self, Io &io)
{
    io.geom("BHT counters", self.counters_.size());
    io.u8s(self.counters_);
    io.counter(self.lookups_);
    io.counter(self.correct_);
    io.counter(self.mispredicts_);
}

// --- Lmq --------------------------------------------------------------

template <class Self, class Io>
void
Lmq::ckpt(Self &self, Io &io, Cycle now)
{
    // The stored windows in edge order. The queue is synced to @p now,
    // so every one of them releases after it. Only the windows are
    // state: the busy counts and edges are derived from them on restore.
    if constexpr (Io::restoring) {
        self.reset();
        self.now_ = now;
    } else {
        self.checkSynced(now);
    }
    auto n = self.edges_.size();
    io.u64(n);
    for (std::size_t i = 0; i < n; ++i) {
        Window win;
        if constexpr (!Io::restoring)
            win = self.edges_[i].window;
        io.i32(win.tid);
        io.u64(win.startCycle, field::cycle);
        io.u64(win.releaseCycle, field::cycle);
        if constexpr (Io::restoring) {
            if (win.tid < 0 || win.tid >= num_hw_threads ||
                win.releaseCycle <= win.startCycle ||
                win.releaseCycle <= now)
                fatal("checkpoint LMQ window is malformed (thread %d)",
                      win.tid);
            if (win.startCycle <= now)
                ++self.busy_[static_cast<std::size_t>(win.tid)];
            self.insert(win);
        }
    }
    io.counter(self.allocations_);
    io.counter(self.queuedMisses_);
    io.counter(self.queuedCycles_);
}

template void Lmq::ckpt(const Lmq &, CkptWriter &, Cycle);
template void Lmq::ckpt(Lmq &, CkptReader &, Cycle);

// --- FuPool -----------------------------------------------------------

template <class Self, class Io>
void
FuPool::ckpt(Self &self, Io &io)
{
    for (int fc = 0; fc < static_cast<int>(FuClass::NumFuClasses); ++fc) {
        auto &units = self.busyUntil_[fc];
        io.geom("FU units", units.size());
        for (auto &c : units)
            io.u64(c, field::readyAt);
        io.counter(self.acquisitions_[fc]);
    }
}

// --- IssueQueue -------------------------------------------------------

template <class Self, class Io>
void
IssueQueue::ckpt(Self &self, Io &io)
{
    // Live entries oldest-first: the age order the queue pops in, so
    // restore takes them as they are.
    for (auto &q : self.queues_) {
        auto n = q.refs.size() - q.head;
        io.u64(n);
        if constexpr (Io::restoring) {
            q.head = 0;
            q.refs.resize(n);
        }
        for (std::size_t i = q.head; i < q.refs.size(); ++i) {
            auto &ref = q.refs[i];
            io.u64(ref.stamp, field::stamp);
            io.i32(ref.tid);
            io.u64(ref.seq, field::seq(ref.tid));
            io.u64(ref.epoch, field::epoch(ref.tid));
            io.u32(ref.slot, field::slot(ref.tid));
        }
    }
}

template void IssueQueue::ckpt(const IssueQueue &, CkptWriter &);
template void IssueQueue::ckpt(IssueQueue &, CkptReader &);

// --- Gct --------------------------------------------------------------

template <class Self, class Io>
void
Gct::ckpt(Self &self, Io &io)
{
    // Logical (oldest-first) serialization: the window entries' group
    // handles and the unfinished counts are derived state, which the
    // core rebuilds after restore.
    ThreadId tid = 0;
    for (auto &ring : self.groups_) {
        auto n = ring.size();
        io.u64(n);
        if constexpr (Io::restoring) {
            ring.clear();
            for (std::size_t i = 0; i < n; ++i)
                ring.pushSlot();
        }
        for (auto &g : ring) {
            io.u64(g.startSeq, field::seq(tid));
            io.i32(g.count);
            // Derived state: the core recounts it from the window.
            if constexpr (Io::restoring)
                g.unfinished = g.count;
        }
        ++tid;
    }
    io.counter(self.allocated_);
    io.counter(self.retired_);
}

// --- Lsu --------------------------------------------------------------

template <class Self, class Io>
void
Lsu::ckpt(Self &self, Io &io)
{
    // A walk request counts only while it is within three walk times
    // of now (Lsu::reserveWalker), so older ones all act alike.
    const Cycle walk_horizon =
        3 * static_cast<Cycle>(self.params_.mem.tlb.walkLatency);
    io.u64(self.walkerNextFree_, field::readyAt);
    for (auto &c : self.lastWalkRequest_)
        io.u64(c, field::walkAge(walk_horizon));
    for (auto &c : self.walkUntil_)
        io.u64(c, field::readyAt);
    io.i32(self.walkerTid_);
    io.u64(self.walkerServiceUntil_, field::readyAt);
    io.u64(self.portNextFree_, field::readyAt);
    counterArrays(io, self.loads_, self.stores_, self.walks_,
                  self.levelCounts_);
}

// --- Balancer / DecodeArbiter -----------------------------------------

template <class Self, class Io>
void
Balancer::ckpt(Self &self, Io &io)
{
    counterArrays(io, self.gctBlocks_, self.lmqBlocks_, self.tlbBlocks_,
                  self.flushes_);
}

template <class Self, class Io>
void
DecodeArbiter::ckpt(Self &self, Io &io)
{
    counterArrays(io, self.granted_, self.forfeited_, self.reassigned_);
}

// --- MemBackside / CacheHierarchy -------------------------------------

template <class Self, class Io>
void
MemBackside::ckpt(Self &self, Io &io)
{
    Cache::ckpt(self.l2_, io);
    Cache::ckpt(self.l3_, io);
    io.u64(self.dramNextFree_, field::readyAt);
}

template <class Self, class Io>
void
CacheHierarchy::ckpt(Self &self, Io &io)
{
    if (!self.ownsBackside())
        fatal("checkpointing a shared-backside hierarchy is not "
              "supported (the snapshot would tear chip-wide state)");
    Cache::ckpt(self.l1d_, io);
    for (const auto &tlb : self.tlbs_)
        Tlb::ckpt(*tlb, io);
    MemBackside::ckpt(*self.backside_, io);
    counterArrays(io, self.tlbMisses_, self.l1Misses_, self.beyondL2_);
}

// --- ThreadState ------------------------------------------------------

namespace {

/** One window entry: its instruction, then its pipeline state. */
template <class Entry, class Io>
void
ckptInFlight(Entry &e, Io &io, ThreadId tid)
{
    auto &di = e.di;
    io.i32(di.tid);
    io.u64(di.seq, field::seq(tid));
    io.u8(di.op);
    io.i32(di.dst);
    io.i32(di.src0);
    io.i32(di.src1);
    io.u64(di.addr);
    io.b(di.branchTaken);
    io.b(di.branchPredictedTaken);
    io.i32(di.prioNopReg);
    io.u64(di.pc);
    io.u64(di.completeCycle, field::readyAt);
    io.u8(e.phase);
    io.i32(e.pendingSrcs);
    io.u64(e.epoch, field::epoch(tid));
    io.u64(e.stamp, field::stamp);
    io.b(e.inReadyQueue);
}

} // namespace

template <class Self, class Io>
void
ThreadState::ckpt(Self &self, Io &io)
{
    bool attached = self.attached();
    io.b(attached);
    if constexpr (Io::restoring)
        if (attached != self.attached())
            fatal("checkpoint thread-attachment mismatch on thread %d "
                  "(checkpoint key bug?)", self.tid_);
    if (!attached)
        return;

    // The live window entries oldest-first, after the ring's head
    // index: restore puts them back in the same physical slots, so the
    // slot handles held by the ready queues and the completion heap
    // stay valid.
    const ThreadId tid = self.tid_;
    io.geom("window capacity", self.window.capacity());
    auto head = self.window.headIndex();
    auto size = self.window.size();
    io.u64(head, field::slot(tid));
    io.u64(size);
    if constexpr (Io::restoring)
        self.window.setShape(head, size);
    for (auto &e : self.window)
        ckptInFlight(e, io, tid);
    if constexpr (Io::restoring)
        self.rebuildFromWindow();

    io.u64(self.epoch, field::epoch(tid));
    io.u64(self.decodeBlockedUntil, field::readyAt);
    io.u8(self.privilege);
    // Everything committed precedes the window, so the count is a
    // sequence number: the next one to commit.
    io.u64(self.committed, field::seq(tid));
    io.u64(self.executionsCompleted, field::progress(tid));
    io.u64(self.lastExecutionCycle, field::event(tid));
    auto next_seq = self.stream_->nextSeq();
    io.u64(next_seq, field::streamPos(tid));
    if constexpr (Io::restoring)
        self.stream_->seekTo(next_seq);

    io.counter(self.committedCtr);
    io.counter(self.squashedCtr);
    io.counter(self.mispredictsCtr);
    io.counter(self.prioNopsApplied);
    io.counter(self.prioNopsIgnored);
}

// --- SmtCore ----------------------------------------------------------

template <class Self, class Io>
void
SmtCore::ckpt(Self &self, Io &io)
{
    io.u64(self.cycle_, field::cycle);
    io.u64(self.dispatchStamp_, field::stamp);
    io.u64(self.idleSkipped_, field::probe);
    io.u64(self.ffProbes_, field::probe);
    io.b(self.tickProgress_, field::probe);
    io.u32(self.idleStreak_, field::probe);

    for (const auto &ts : self.threads_)
        ThreadState::ckpt(*ts, io);

    CacheHierarchy::ckpt(self.hierarchy_, io);
    Lmq::ckpt(self.lmq_, io, self.cycle_);
    Lsu::ckpt(self.lsu_, io);
    Bht::ckpt(self.bht_, io);
    Gct::ckpt(self.gct_, io);
    if constexpr (Io::restoring)
        for (const auto &ts : self.threads_)
            self.recountGroups(*ts, 0);
    FuPool::ckpt(self.fuPool_, io);
    IssueQueue::ckpt(self.readyQ_, io);
    DecodeArbiter::ckpt(self.arbiter_, io);
    Balancer::ckpt(self.balancer_, io);

    // The completion heap array verbatim (heap layout preserved).
    auto n = self.completions_.size();
    io.u64(n);
    if constexpr (Io::restoring)
        self.completions_.resize(n);
    for (auto &c : self.completions_) {
        io.u64(c.cycle, field::cycle);
        io.i32(c.tid);
        io.u64(c.seq, field::seq(c.tid));
        io.u64(c.epoch, field::epoch(c.tid));
        io.u32(c.slot, field::slot(c.tid));
    }

    counterArrays(io, self.decoded_, self.stalls_[0], self.stalls_[1],
                  self.stalls_[2], self.flushedInstrs_);
}

void
SmtCore::saveState(CkptWriter &w) const
{
    ckpt(*this, w);
}

void
SmtCore::restoreState(CkptReader &r)
{
    ckpt(*this, r);
}

// --- Period skip --------------------------------------------------------

RelBases
SmtCore::relBases() const
{
    RelBases bases;
    bases.now = cycle_;
    bases.stamp = dispatchStamp_;
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const ThreadState &ts = *threads_[static_cast<std::size_t>(t)];
        if (!ts.attached())
            continue;
        RelBases::Thread &b = bases.thread[static_cast<std::size_t>(t)];
        b.pos = ts.stream().nextSeq();
        b.epoch = ts.epoch;
        b.head = ts.window.headIndex();
        b.capacity = ts.window.capacity();
        b.period = ts.stream().periodInstrs();
    }
    return bases;
}

namespace {

/**
 * State that is not in the checkpoint bodies because the checkpoint key
 * fixes it, but that can differ between two boundaries of one run: the
 * decode-slot phase (the grant pattern repeats every
 * grantPhasePeriod() cycles, at most grant_period) and the
 * priorities, which committed or-nops may change.
 */
void
extraState(const SmtCore &core, StateRelativiser &rel)
{
    const DecodeSlotAllocator &alloc = core.arbiter().allocator();
    rel.extra(core.cycle() % alloc.grantPhasePeriod());
    for (ThreadId t = 0; t < num_hw_threads; ++t)
        rel.extra(static_cast<std::uint64_t>(alloc.priorityOf(t)));
}

} // namespace

void
SmtCore::snapshotState(StateSnapshot &out) const
{
    const RelBases bases = relBases();
    StateRelativiser rel(bases, out);
    extraState(*this, rel);
    ckpt(*this, rel);
}

void
SmtCore::jumpPeriods(std::uint64_t k, const StateSnapshot &a,
                     const StateSnapshot &b)
{
    if (b.cycle != cycle_ || a.cycle >= b.cycle || a.kinds.size() !=
        b.kinds.size() || !a.sameState(b))
        panic("period jump from snapshots that are not one period of "
              "this core apart");
    const Cycle span = k * (b.cycle - a.cycle);
    std::vector<std::uint64_t> image = b.raw;
    for (std::size_t i = 0; i < image.size(); ++i) {
        std::uint64_t &v = image[i];
        const Field f = b.kinds[i];
        switch (f.kind) {
          case FieldKind::Plain:
          case FieldKind::Slot:
          case FieldKind::Probe:
            break;
          case FieldKind::Cycle:
            if (v != never_cycle)
                v += span;
            break;
          case FieldKind::Event:
            // Inside the period an event recurs in every later one.
            if (v > a.cycle)
                v += span;
            break;
          case FieldKind::ReadyAt:
            // A past value acts like any other past value.
            if (v != never_cycle && v > b.cycle)
                v += span;
            break;
          case FieldKind::WalkAge:
            // An age past the horizon stays past it.
            if (v != never_cycle && v <= b.cycle &&
                b.cycle - v <= f.horizon)
                v += span;
            break;
          case FieldKind::Counter:
          case FieldKind::Seq:
          case FieldKind::Stamp:
          case FieldKind::Epoch:
          case FieldKind::StreamPos:
          case FieldKind::Progress:
            v += k * (v - a.raw[i]);
            break;
        }
    }
    StateReplayer replay(image);
    ckpt(*this, replay);
    replay.expectEnd();
    periodSkipped_ += span;
    if (checks_)
        checks_->reprime();
}

} // namespace p5
