#include "core/lsu.hh"

#include <algorithm>

#include "common/log.hh"

namespace p5 {

Lsu::Lsu(const CoreParams &params, CacheHierarchy *hierarchy, Lmq *lmq)
    : params_(params), hierarchy_(hierarchy), lmq_(lmq)
{
    if (!hierarchy_ || !lmq_)
        panic("Lsu constructed with null hierarchy/lmq");
}

void
Lsu::setPriorityView(const DecodeSlotAllocator *allocator)
{
    priorities_ = allocator;
}

Addr
Lsu::effectiveAddr(ThreadId tid, Addr addr) const
{
    const Addr asid =
        static_cast<Addr>(params_.coreId * num_hw_threads + tid + 1);
    return addr + (asid << params_.asidShift);
}

Cycle
Lsu::reserveWalker(ThreadId tid, Cycle now)
{
    const int walk = params_.mem.tlb.walkLatency;
    const ThreadId sibling = static_cast<ThreadId>(1 - tid);

    // One outstanding walk per thread: a second miss waits for the
    // first walk (including any priority delay) to finish.
    Cycle start = std::max(
        {now, walkUntil_[static_cast<size_t>(tid)], walkerNextFree_});
    // The walker itself is occupied for one walk from the unpenalized
    // position; a deprioritized walk executes later but must not block
    // the sibling's walks behind its idle wait.
    walkerNextFree_ = start + static_cast<Cycle>(walk);

    // When both threads use the walker, its slots follow the thread
    // priorities like the decode slots: the lower-priority thread only
    // gets 1 of every R walk slots. Modeled as an extra (R-1) walk-times
    // delay per walk while the sibling is actively walking.
    const Cycle sibling_last =
        lastWalkRequest_[static_cast<size_t>(sibling)];
    const bool contended =
        sibling_last != never_cycle &&
        sibling_last + static_cast<Cycle>(3 * walk) >= now;
    if (contended && priorities_ && params_.priorityAwareWalker &&
        priorities_->mode() == SlotMode::Dual) {
        const int mine = priorities_->priorityOf(tid);
        const int theirs = priorities_->priorityOf(sibling);
        if (mine < theirs) {
            const int r = DecodeSlotAllocator::computeR(mine, theirs);
            start += static_cast<Cycle>((r - 1) * walk);
        }
    }

    lastWalkRequest_[static_cast<size_t>(tid)] = now;

    // Record the service window for the sibling LSU port gate. (For a
    // deprioritized walk the service executes later than the capacity
    // slot; the approximation keeps one window per walker.)
    walkerTid_ = tid;
    if (walkerNextFree_ > walkerServiceUntil_)
        walkerServiceUntil_ = walkerNextFree_;

    return start;
}

Cycle
Lsu::portGate(ThreadId tid, Cycle now, Cycle ready)
{
    if (params_.walkerPortGap <= 0 || walkerTid_ < 0 ||
        walkerTid_ == tid || now >= walkerServiceUntil_)
        return ready;

    // The gate scales with the walking thread's pipeline share: a
    // deprioritized sibling's walks tie up almost no LSU slots, which
    // is what makes a priority-1 background nearly transparent
    // (Fig. 6) while an equal-priority memory thread crushes a
    // load-hot partner (Table 3).
    int gap = params_.walkerPortGap;
    if (priorities_ && priorities_->mode() == SlotMode::Dual) {
        const double share = priorities_->shareOf(walkerTid_);
        gap = static_cast<int>(
            params_.walkerPortGap * std::min(1.0, 2.0 * share) + 0.5);
    }
    if (gap <= 0)
        return ready;

    // The gate window only ever moves forward: each gated access holds
    // the port for `gap` cycles from when it passes the gate.
    const Cycle start = std::max(ready, portNextFree_);
    portNextFree_ = start + static_cast<Cycle>(gap);
    return start;
}

Cycle
Lsu::nextEventCycle(Cycle now) const
{
    Cycle next = never_cycle;
    const auto consider = [&next, now](Cycle c) {
        if (c > now && c < next)
            next = c;
    };
    for (Cycle until : walkUntil_)
        consider(until);
    consider(walkerNextFree_);
    consider(walkerServiceUntil_);
    consider(portNextFree_);
    return next;
}

Cycle
Lsu::translate(ThreadId tid, Addr ea, Cycle now, bool *walked)
{
    *walked = false;
    TlbResult tr = hierarchy_->tlb(tid).access(ea);
    if (tr.hit)
        return now;

    *walked = true;
    ++walks_[static_cast<size_t>(tid)];
    const Cycle start = reserveWalker(tid, now);
    const Cycle done =
        start + static_cast<Cycle>(params_.mem.tlb.walkLatency);
    auto &until = walkUntil_[static_cast<size_t>(tid)];
    if (done > until)
        until = done;
    return done;
}

MemAccessResult
Lsu::issueLoad(ThreadId tid, Addr addr, Cycle now)
{
    const Addr ea = effectiveAddr(tid, addr);

    MemAccessResult res;
    Cycle ready = translate(tid, ea, now, &res.tlbMiss);
    ready = portGate(tid, now, ready);

    // One walk finds and fills the line. An L1 miss then occupies an
    // LMQ entry for the miss duration; when the queue is full the miss
    // queues behind the blocking entries. The reservation touches no
    // line state, so walking before it times the same as after.
    res.level = hierarchy_->walk(tid, ea);
    const bool l1_miss = res.level != MemLevel::L1;
    if (l1_miss) {
        const Cycle est_release =
            ready + static_cast<Cycle>(estimatedLatency(res.level));
        ready = lmq_->reserve(tid, now, ready, est_release);
    }
    res.doneCycle = hierarchy_->serve(res.level, now, ready);
    ++loads_[static_cast<size_t>(tid)];
    ++levelCounts_[static_cast<int>(res.level)];

    if (l1_miss)
        lmq_->updateLastRelease(res.doneCycle);
    return res;
}

int
Lsu::estimatedLatency(MemLevel level) const
{
    switch (level) {
      case MemLevel::L2:
        return params_.mem.l2.hitLatency;
      case MemLevel::L3:
        return params_.mem.l3.hitLatency;
      case MemLevel::Mem:
        return params_.mem.dramLatency;
      default:
        panic("estimatedLatency: bad level %d", static_cast<int>(level));
    }
}

MemAccessResult
Lsu::issueStore(ThreadId tid, Addr addr, Cycle now)
{
    const Addr ea = effectiveAddr(tid, addr);
    MemAccessResult res;
    Cycle ready = translate(tid, ea, now, &res.tlbMiss);
    ready = portGate(tid, now, ready);
    res.level = hierarchy_->walk(tid, ea);
    res.doneCycle = hierarchy_->serve(res.level, now, ready);
    ++stores_[static_cast<size_t>(tid)];
    return res;
}

void
Lsu::registerStats(StatGroup &group) const
{
    for (int t = 0; t < num_hw_threads; ++t) {
        auto ts = std::to_string(t);
        group.registerCounter("lsu.thread" + ts + ".loads",
                              &loads_[static_cast<size_t>(t)]);
        group.registerCounter("lsu.thread" + ts + ".stores",
                              &stores_[static_cast<size_t>(t)]);
        group.registerCounter("lsu.thread" + ts + ".walks",
                              &walks_[static_cast<size_t>(t)]);
    }
    group.registerCounter("lsu.loads.l1", &levelCounts_[0]);
    group.registerCounter("lsu.loads.l2", &levelCounts_[1]);
    group.registerCounter("lsu.loads.l3", &levelCounts_[2]);
    group.registerCounter("lsu.loads.mem", &levelCounts_[3]);
}

} // namespace p5
