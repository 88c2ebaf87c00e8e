/**
 * @file
 * Architectural-state serialization for every checkpointable component.
 *
 * All saveState()/restoreState() bodies live in this one translation
 * unit so the complete set of bytes that enters a checkpoint can be
 * audited in a single place (the p5lint determinism rule points here).
 * Two contracts hold throughout:
 *
 *  1. The stream is a pure function of simulated state. Every field is
 *     written in a fixed order through CkptWriter's little-endian
 *     primitives, individually or, for an array of plain words (the
 *     LRU tags), as one bulk copy; no struct is ever written via memcpy
 *     (padding bytes are indeterminate) and no unordered container is
 *     ever iterated (there are none in the saved state — heaps and
 *     the sorted ready arrays are explicit vectors, maps are std::map).
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
 * Geometry reads double as sanity checks and fatal() on mismatch.
 */

#include <algorithm>
#include <vector>

#include "branch/bht.hh"
#include "ckpt/ckpt_io.hh"
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

void
expectGeom(const char *what, std::uint64_t saved, std::uint64_t built)
{
    if (saved != built)
        fatal("checkpoint geometry mismatch: %s is %llu in the stream "
              "but %llu in the restoring core (checkpoint key bug?)",
              what, static_cast<unsigned long long>(saved),
              static_cast<unsigned long long>(built));
}

} // namespace

// --- LruArray / Cache / Tlb -----------------------------------------

void
LruArray::saveState(CkptWriter &w) const
{
    w.u64(static_cast<std::uint64_t>(tags_.size()));
    w.u64s(tags_);
    w.counter(hits_);
    w.counter(misses_);
    w.counter(insertions_);
    w.counter(evictions_);
}

void
LruArray::restoreState(CkptReader &r)
{
    expectGeom("LRU array entries", r.u64(), tags_.size());
    r.u64s(tags_);
    // Recency is the way order, so a set must hold its valid tags as a
    // prefix, each once; anything else is no state access() can reach.
    for (std::size_t base = 0; base < tags_.size(); base += assoc_) {
        const Addr *set = &tags_[base];
        int valid = 0;
        while (valid < assoc_ && set[valid] != invalid_tag)
            ++valid;
        for (int w = valid; w < assoc_; ++w)
            if (set[w] != invalid_tag)
                fatal("checkpoint LRU set %zu has a valid tag after an "
                      "invalid way",
                      base / assoc_);
        for (int w = 1; w < valid; ++w)
            if (std::find(set, set + w, set[w]) != set + w)
                fatal("checkpoint LRU set %zu holds a tag twice",
                      base / assoc_);
    }
    r.counter(hits_);
    r.counter(misses_);
    r.counter(insertions_);
    r.counter(evictions_);
}

void
Cache::saveState(CkptWriter &w) const
{
    lines_.saveState(w);
    w.u64(nextFree_);
}

void
Cache::restoreState(CkptReader &r)
{
    lines_.restoreState(r);
    nextFree_ = r.u64();
}

void
Tlb::saveState(CkptWriter &w) const
{
    pages_.saveState(w);
}

void
Tlb::restoreState(CkptReader &r)
{
    pages_.restoreState(r);
}

// --- Bht --------------------------------------------------------------

void
Bht::saveState(CkptWriter &w) const
{
    w.u64(static_cast<std::uint64_t>(counters_.size()));
    for (std::uint8_t c : counters_)
        w.u8(c);
    w.counter(lookups_);
    w.counter(correct_);
    w.counter(mispredicts_);
}

void
Bht::restoreState(CkptReader &r)
{
    expectGeom("BHT counters", r.u64(), counters_.size());
    for (std::uint8_t &c : counters_)
        c = r.u8();
    r.counter(lookups_);
    r.counter(correct_);
    r.counter(mispredicts_);
}

// --- Lmq --------------------------------------------------------------

void
Lmq::saveState(CkptWriter &w, Cycle now) const
{
    // The stored windows in edge order. The queue is synced to @p now,
    // so every one of them releases after it. Only the windows are
    // state: the busy counts and edges are derived from them on restore.
    checkSynced(now);
    w.u64(static_cast<std::uint64_t>(edges_.size()));
    for (const Edge &e : edges_) {
        w.i32(e.window.tid);
        w.u64(e.window.startCycle);
        w.u64(e.window.releaseCycle);
    }
    w.counter(allocations_);
    w.counter(queuedMisses_);
    w.counter(queuedCycles_);
}

void
Lmq::restoreState(CkptReader &r, Cycle now)
{
    reset();
    now_ = now;
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        Window win;
        win.tid = r.i32();
        win.startCycle = r.u64();
        win.releaseCycle = r.u64();
        if (win.tid < 0 || win.tid >= num_hw_threads ||
            win.releaseCycle <= win.startCycle || win.releaseCycle <= now)
            fatal("checkpoint LMQ window is malformed (thread %d)",
                  win.tid);
        if (win.startCycle <= now)
            ++busy_[static_cast<std::size_t>(win.tid)];
        insert(win);
    }
    r.counter(allocations_);
    r.counter(queuedMisses_);
    r.counter(queuedCycles_);
}

// --- FuPool -----------------------------------------------------------

void
FuPool::saveState(CkptWriter &w) const
{
    for (int fc = 0; fc < static_cast<int>(FuClass::NumFuClasses); ++fc) {
        const std::vector<Cycle> &units = busyUntil_[fc];
        w.u64(static_cast<std::uint64_t>(units.size()));
        for (Cycle c : units)
            w.u64(c);
        w.counter(acquisitions_[fc]);
    }
}

void
FuPool::restoreState(CkptReader &r)
{
    for (int fc = 0; fc < static_cast<int>(FuClass::NumFuClasses); ++fc) {
        std::vector<Cycle> &units = busyUntil_[fc];
        expectGeom("FU units", r.u64(), units.size());
        for (Cycle &c : units)
            c = r.u64();
        r.counter(acquisitions_[fc]);
    }
}

// --- IssueQueue -------------------------------------------------------

void
IssueQueue::saveState(CkptWriter &w) const
{
    // Live entries oldest-first: the age order the queue pops in, so
    // restore takes them as they are.
    for (const Ready &q : queues_) {
        w.u64(static_cast<std::uint64_t>(q.refs.size() - q.head));
        for (std::size_t i = q.head; i < q.refs.size(); ++i) {
            const ReadyRef &ref = q.refs[i];
            w.u64(ref.stamp);
            w.i32(ref.tid);
            w.u64(ref.seq);
            w.u64(ref.epoch);
            w.u32(ref.slot);
        }
    }
}

void
IssueQueue::restoreState(CkptReader &r)
{
    for (Ready &q : queues_) {
        q.head = 0;
        q.refs.resize(static_cast<std::size_t>(r.u64()));
        for (ReadyRef &ref : q.refs) {
            ref.stamp = r.u64();
            ref.tid = r.i32();
            ref.seq = r.u64();
            ref.epoch = r.u64();
            ref.slot = r.u32();
        }
    }
}

// --- Gct --------------------------------------------------------------

void
Gct::saveState(CkptWriter &w) const
{
    // Logical (oldest-first) serialization: the window entries' group
    // handles and the unfinished counts are derived state, which the
    // core rebuilds after restore.
    for (const RingDeque<GctGroup> &ring : groups_) {
        w.u64(static_cast<std::uint64_t>(ring.size()));
        for (const GctGroup &g : ring) {
            w.u64(g.startSeq);
            w.i32(g.count);
        }
    }
    w.counter(allocated_);
    w.counter(retired_);
}

void
Gct::restoreState(CkptReader &r)
{
    for (RingDeque<GctGroup> &ring : groups_) {
        ring.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            GctGroup &g = ring.pushSlot();
            g.startSeq = r.u64();
            g.count = r.i32();
            // Derived state: the core recounts it from the window.
            g.unfinished = g.count;
        }
    }
    r.counter(allocated_);
    r.counter(retired_);
}

// --- Lsu --------------------------------------------------------------

void
Lsu::saveState(CkptWriter &w) const
{
    w.u64(walkerNextFree_);
    for (Cycle c : lastWalkRequest_)
        w.u64(c);
    for (Cycle c : walkUntil_)
        w.u64(c);
    w.i32(walkerTid_);
    w.u64(walkerServiceUntil_);
    w.u64(portNextFree_);
    for (const Counter &c : loads_)
        w.counter(c);
    for (const Counter &c : stores_)
        w.counter(c);
    for (const Counter &c : walks_)
        w.counter(c);
    for (const Counter &c : levelCounts_)
        w.counter(c);
}

void
Lsu::restoreState(CkptReader &r)
{
    walkerNextFree_ = r.u64();
    for (Cycle &c : lastWalkRequest_)
        c = r.u64();
    for (Cycle &c : walkUntil_)
        c = r.u64();
    walkerTid_ = r.i32();
    walkerServiceUntil_ = r.u64();
    portNextFree_ = r.u64();
    for (Counter &c : loads_)
        r.counter(c);
    for (Counter &c : stores_)
        r.counter(c);
    for (Counter &c : walks_)
        r.counter(c);
    for (Counter &c : levelCounts_)
        r.counter(c);
}

// --- Balancer ---------------------------------------------------------

void
Balancer::saveState(CkptWriter &w) const
{
    for (const Counter &c : gctBlocks_)
        w.counter(c);
    for (const Counter &c : lmqBlocks_)
        w.counter(c);
    for (const Counter &c : tlbBlocks_)
        w.counter(c);
    for (const Counter &c : flushes_)
        w.counter(c);
}

void
Balancer::restoreState(CkptReader &r)
{
    for (Counter &c : gctBlocks_)
        r.counter(c);
    for (Counter &c : lmqBlocks_)
        r.counter(c);
    for (Counter &c : tlbBlocks_)
        r.counter(c);
    for (Counter &c : flushes_)
        r.counter(c);
}

// --- DecodeArbiter ----------------------------------------------------

void
DecodeArbiter::saveState(CkptWriter &w) const
{
    for (const Counter &c : granted_)
        w.counter(c);
    for (const Counter &c : forfeited_)
        w.counter(c);
    for (const Counter &c : reassigned_)
        w.counter(c);
}

void
DecodeArbiter::restoreState(CkptReader &r)
{
    for (Counter &c : granted_)
        r.counter(c);
    for (Counter &c : forfeited_)
        r.counter(c);
    for (Counter &c : reassigned_)
        r.counter(c);
}

// --- MemBackside / CacheHierarchy -------------------------------------

void
MemBackside::saveState(CkptWriter &w) const
{
    l2_.saveState(w);
    l3_.saveState(w);
    w.u64(dramNextFree_);
}

void
MemBackside::restoreState(CkptReader &r)
{
    l2_.restoreState(r);
    l3_.restoreState(r);
    dramNextFree_ = r.u64();
}

void
CacheHierarchy::saveState(CkptWriter &w) const
{
    if (backside_ != ownedBackside_.get())
        fatal("checkpointing a shared-backside hierarchy is not "
              "supported (the snapshot would tear chip-wide state)");
    l1d_.saveState(w);
    for (const auto &tlb : tlbs_)
        tlb->saveState(w);
    backside_->saveState(w);
    for (const Counter &c : tlbMisses_)
        w.counter(c);
    for (const Counter &c : l1Misses_)
        w.counter(c);
    for (const Counter &c : beyondL2_)
        w.counter(c);
}

void
CacheHierarchy::restoreState(CkptReader &r)
{
    if (backside_ != ownedBackside_.get())
        fatal("restoring into a shared-backside hierarchy is not "
              "supported");
    l1d_.restoreState(r);
    for (const auto &tlb : tlbs_)
        tlb->restoreState(r);
    backside_->restoreState(r);
    for (Counter &c : tlbMisses_)
        r.counter(c);
    for (Counter &c : l1Misses_)
        r.counter(c);
    for (Counter &c : beyondL2_)
        r.counter(c);
}

// --- ThreadState ------------------------------------------------------

namespace {

void
saveDynInstr(CkptWriter &w, const DynInstr &di)
{
    w.i32(di.tid);
    w.u64(di.seq);
    w.u8(static_cast<std::uint8_t>(di.op));
    w.i32(di.dst);
    w.i32(di.src0);
    w.i32(di.src1);
    w.u64(di.addr);
    w.b(di.branchTaken);
    w.b(di.branchPredictedTaken);
    w.i32(di.prioNopReg);
    w.u64(di.pc);
    w.u64(di.completeCycle);
}

void
restoreDynInstr(CkptReader &r, DynInstr &di)
{
    di.tid = r.i32();
    di.seq = r.u64();
    di.op = static_cast<OpClass>(r.u8());
    di.dst = static_cast<RegIndex>(r.i32());
    di.src0 = static_cast<RegIndex>(r.i32());
    di.src1 = static_cast<RegIndex>(r.i32());
    di.addr = r.u64();
    di.branchTaken = r.b();
    di.branchPredictedTaken = r.b();
    di.prioNopReg = r.i32();
    di.pc = r.u64();
    di.completeCycle = r.u64();
}

void
saveInFlight(CkptWriter &w, const InFlight &e)
{
    saveDynInstr(w, e.di);
    w.u8(static_cast<std::uint8_t>(e.phase));
    w.i32(e.pendingSrcs);
    w.u64(e.epoch);
    w.u64(e.stamp);
    w.b(e.inReadyQueue);
}

void
restoreInFlight(CkptReader &r, InFlight &e)
{
    restoreDynInstr(r, e.di);
    e.phase = static_cast<InstrPhase>(r.u8());
    e.pendingSrcs = r.i32();
    e.epoch = r.u64();
    e.stamp = r.u64();
    e.inReadyQueue = r.b();
}

} // namespace

void
ThreadState::saveState(CkptWriter &w) const
{
    w.b(attached());
    if (!attached())
        return;

    // The live window entries oldest-first, after the ring's head
    // index: restore puts them back in the same physical slots, so the
    // slot handles held by the ready queues and the completion heap
    // stay valid.
    w.u64(static_cast<std::uint64_t>(window.capacity()));
    w.u64(static_cast<std::uint64_t>(window.headIndex()));
    w.u64(static_cast<std::uint64_t>(window.size()));
    for (const InFlight &e : window)
        saveInFlight(w, e);

    w.u64(epoch);
    w.u64(decodeBlockedUntil);
    w.u8(static_cast<std::uint8_t>(privilege));
    w.u64(committed);
    w.u64(executionsCompleted);
    w.u64(lastExecutionCycle);
    w.u64(stream_->nextSeq());

    w.counter(committedCtr);
    w.counter(squashedCtr);
    w.counter(mispredictsCtr);
    w.counter(prioNopsApplied);
    w.counter(prioNopsIgnored);
}

void
ThreadState::restoreState(CkptReader &r)
{
    const bool was_attached = r.b();
    if (was_attached != attached())
        fatal("checkpoint thread-attachment mismatch on thread %d "
              "(checkpoint key bug?)", tid_);
    if (!was_attached)
        return;

    expectGeom("window capacity", r.u64(), window.capacity());
    const auto head = static_cast<std::size_t>(r.u64());
    const auto size = static_cast<std::size_t>(r.u64());
    window.setShape(head, size);
    for (InFlight &e : window)
        restoreInFlight(r, e);
    rebuildFromWindow();

    epoch = r.u64();
    decodeBlockedUntil = r.u64();
    privilege = static_cast<PrivilegeLevel>(r.u8());
    committed = r.u64();
    executionsCompleted = r.u64();
    lastExecutionCycle = r.u64();
    stream_->seekTo(r.u64());

    r.counter(committedCtr);
    r.counter(squashedCtr);
    r.counter(mispredictsCtr);
    r.counter(prioNopsApplied);
    r.counter(prioNopsIgnored);
}

// --- SmtCore ----------------------------------------------------------

void
SmtCore::saveState(CkptWriter &w) const
{
    w.u64(cycle_);
    w.u64(dispatchStamp_);
    w.u64(idleSkipped_);
    w.u64(ffProbes_);
    w.b(tickProgress_);
    w.u32(idleStreak_);

    for (const auto &ts : threads_)
        ts->saveState(w);

    hierarchy_.saveState(w);
    lmq_.saveState(w, cycle_);
    lsu_.saveState(w);
    bht_.saveState(w);
    gct_.saveState(w);
    fuPool_.saveState(w);
    readyQ_.saveState(w);
    arbiter_.saveState(w);
    balancer_.saveState(w);

    // The completion heap array verbatim (heap layout preserved).
    w.u64(static_cast<std::uint64_t>(completions_.size()));
    for (const Completion &c : completions_) {
        w.u64(c.cycle);
        w.i32(c.tid);
        w.u64(c.seq);
        w.u64(c.epoch);
        w.u32(c.slot);
    }

    for (const Counter &c : decoded_)
        w.counter(c);
    for (const Counter &c : stallBalancer_)
        w.counter(c);
    for (const Counter &c : stallRedirect_)
        w.counter(c);
    for (const Counter &c : stallGct_)
        w.counter(c);
    for (const Counter &c : flushedInstrs_)
        w.counter(c);
}

void
SmtCore::restoreState(CkptReader &r)
{
    cycle_ = r.u64();
    dispatchStamp_ = r.u64();
    idleSkipped_ = r.u64();
    ffProbes_ = r.u64();
    tickProgress_ = r.b();
    idleStreak_ = r.u32();

    for (const auto &ts : threads_)
        ts->restoreState(r);

    hierarchy_.restoreState(r);
    lmq_.restoreState(r, cycle_);
    lsu_.restoreState(r);
    bht_.restoreState(r);
    gct_.restoreState(r);
    for (const auto &ts : threads_)
        recountGroups(*ts, 0);
    fuPool_.restoreState(r);
    readyQ_.restoreState(r);
    arbiter_.restoreState(r);
    balancer_.restoreState(r);

    completions_.resize(static_cast<std::size_t>(r.u64()));
    for (Completion &c : completions_) {
        c.cycle = r.u64();
        c.tid = r.i32();
        c.seq = r.u64();
        c.epoch = r.u64();
        c.slot = r.u32();
    }

    for (Counter &c : decoded_)
        r.counter(c);
    for (Counter &c : stallBalancer_)
        r.counter(c);
    for (Counter &c : stallRedirect_)
        r.counter(c);
    for (Counter &c : stallGct_)
        r.counter(c);
    for (Counter &c : flushedInstrs_)
        r.counter(c);
}

} // namespace p5
