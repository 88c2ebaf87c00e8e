#include "core/smt_core.hh"

#include <algorithm>

#include "check/check.hh"
#include "common/log.hh"

// -DP5SIM_CHECK=1 (the P5SIM_CHECK CMake option) turns every core into
// a checked core: the standard p5check suite is installed at
// construction and violations are fatal.
#ifndef P5SIM_CHECK
#define P5SIM_CHECK 0
#endif

namespace p5 {

SmtCore::SmtCore(const CoreParams &params, MemBackside *shared_backside)
    : params_(params), hierarchy_(params.mem, shared_backside),
      lmq_(params.lmqEntries), lsu_(params_, &hierarchy_, &lmq_),
      bht_(params.bht), gct_(params.gctGroups), fuPool_(params.fuCount),
      arbiter_(params.decodeWidth, params.minoritySlotWidth,
               params.workConservingSlots),
      balancer_(params.balancer, params.gctGroups, params.lmqEntries),
      stats_("core" + std::to_string(params.coreId))
{
    params_.validate();
    for (ThreadId t = 0; t < num_hw_threads; ++t)
        threads_[static_cast<size_t>(t)] = std::make_unique<ThreadState>(t);
    // Both threads start shut off; attachThread turns them on.
    arbiter_.allocator().setPriorities(0, 0);
    lsu_.setPriorityView(&arbiter_.allocator());
    balancer_.setPriorityView(&arbiter_.allocator());
    // Pre-size the completion heap past any plausible in-flight count
    // so busy-path pushes never reallocate.
    completions_.reserve(256);
    registerStats();
#if P5SIM_CHECK
    check::installStandardCheckers(*this);
#endif
}

SmtCore::~SmtCore() = default;

check::CheckRegistry &
SmtCore::checks()
{
    if (!checks_)
        checks_ = std::make_unique<check::CheckRegistry>(P5SIM_CHECK != 0);
    return *checks_;
}

void
SmtCore::registerStats()
{
    hierarchy_.registerStats(stats_);
    lmq_.registerStats(stats_);
    lsu_.registerStats(stats_);
    bht_.registerStats(stats_);
    gct_.registerStats(stats_);
    fuPool_.registerStats(stats_);
    arbiter_.registerStats(stats_);
    balancer_.registerStats(stats_);
    for (int t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<size_t>(t);
        auto ts = std::to_string(t);
        ThreadState &th = *threads_[ti];
        stats_.registerCounter("thread" + ts + ".committed",
                               &th.committedCtr);
        stats_.registerCounter("thread" + ts + ".squashed",
                               &th.squashedCtr);
        stats_.registerCounter("thread" + ts + ".mispredicts",
                               &th.mispredictsCtr);
        stats_.registerCounter("thread" + ts + ".prioNopsApplied",
                               &th.prioNopsApplied);
        stats_.registerCounter("thread" + ts + ".prioNopsIgnored",
                               &th.prioNopsIgnored);
        stats_.registerCounter("thread" + ts + ".decoded", &decoded_[ti]);
        static constexpr const char *stall_names[] = {
            ".stallBalancer", ".stallRedirect", ".stallGct"};
        for (std::size_t r = 0; r < stalls_.size(); ++r)
            stats_.registerCounter("thread" + ts + stall_names[r],
                                   &stalls_[r][ti]);
        stats_.registerCounter("thread" + ts + ".flushedInstrs",
                               &flushedInstrs_[ti]);
    }
}

// --- thread management ----------------------------------------------

void
SmtCore::attachThread(ThreadId tid, const InstrSource *program,
                      int priority, PrivilegeLevel privilege)
{
    if (tid < 0 || tid >= num_hw_threads)
        panic("attachThread: bad tid %d", tid);
    ThreadState &ts = *threads_[static_cast<size_t>(tid)];
    // The window can never outgrow the GCT's instruction capacity, so
    // the ring is sized once here and slot handles stay exact; the
    // extra group is the slack decode fetches into before the GCT
    // admits the group.
    const std::size_t window_cap =
        static_cast<std::size_t>(params_.gctGroups + 1) *
        static_cast<std::size_t>(params_.groupSize);
    ts.attach(program, window_cap);
    ts.privilege = privilege;
    arbiter_.allocator().setPriority(tid, priority);
    idleStreak_ = ff_arm_streak;
}

void
SmtCore::detachThread(ThreadId tid)
{
    ThreadState &ts = *threads_[static_cast<size_t>(tid)];
    ts.detach();
    lmq_.releaseThread(tid);
    gct_.clearThread(tid);
    arbiter_.allocator().setPriority(tid, 0);
    idleStreak_ = ff_arm_streak;
}

bool
SmtCore::threadAttached(ThreadId tid) const
{
    return threads_[static_cast<size_t>(tid)]->attached();
}

// --- priorities -------------------------------------------------------

void
SmtCore::setPriorityPair(int prio_p, int prio_s)
{
    arbiter_.allocator().setPriorities(prio_p, prio_s);
}

bool
SmtCore::requestPriority(ThreadId tid, int prio, PrivilegeLevel priv)
{
    if (!isValidPriority(prio))
        return false;
    if (!canSetPriority(priv, prio))
        return false;
    arbiter_.allocator().setPriority(tid, prio);
    return true;
}

int
SmtCore::priorityOf(ThreadId tid) const
{
    return arbiter_.allocator().priorityOf(tid);
}

void
SmtCore::setPrioNopListener(PrioNopListener fn)
{
    prioNopListener_ = std::move(fn);
}

// --- observation -----------------------------------------------------

ThreadState &
SmtCore::thread(ThreadId tid)
{
    return *threads_[static_cast<size_t>(tid)];
}

const ThreadState &
SmtCore::thread(ThreadId tid) const
{
    return *threads_[static_cast<size_t>(tid)];
}

std::uint64_t
SmtCore::committedOf(ThreadId tid) const
{
    return threads_[static_cast<size_t>(tid)]->committed;
}

double
SmtCore::ipcOf(ThreadId tid) const
{
    if (cycle_ == 0)
        return 0.0;
    return static_cast<double>(committedOf(tid)) /
           static_cast<double>(cycle_);
}

double
SmtCore::totalIpc() const
{
    return ipcOf(0) + ipcOf(1);
}

// --- simulation loop --------------------------------------------------

void
SmtCore::tick()
{
    tickProgress_ = false;
    if (profile_) {
        tickTimed();
    } else {
        processCompletions();
        issueStage();
        commitStage();
        decodeStage();
    }
    if (checks_)
        checks_->onCycle(*this, cycle_);
    ++cycle_;
    lmq_.advanceTo(cycle_);
}

void
SmtCore::tickTimed()
{
    const auto t0 = Clock::now();
    processCompletions();
    const auto t1 = Clock::now();
    issueStage();
    const auto t2 = Clock::now();
    commitStage();
    const auto t3 = Clock::now();
    decodeStage();
    const auto t4 = Clock::now();
    profile_->completionsNs += nsBetween(t0, t1);
    profile_->issueNs += nsBetween(t1, t2);
    profile_->commitNs += nsBetween(t2, t3);
    profile_->decodeNs += nsBetween(t3, t4);
    ++profile_->timedTicks;
}

void
SmtCore::run(Cycle cycles)
{
    runUntil(saturatingAdd(cycle_, cycles), [] { return false; });
}

bool
SmtCore::runUntilExecutions(ThreadId tid, std::uint64_t executions,
                            Cycle max_cycles)
{
    return runUntil(saturatingAdd(cycle_, max_cycles), [&] {
        return executionsOf(tid) >= executions;
    });
}

bool
SmtCore::periodSkipAllowed() const
{
    if (!params_.fastForward || !hierarchy_.ownsBackside() ||
        prioNopListener_)
        return false;
    for (const auto &ts : threads_)
        if (ts->attached() && ts->stream().periodInstrs() == 0)
            return false;
    return true;
}

// --- idle-cycle fast-forward ------------------------------------------
//
// A cycle is *idle* when tick() would change nothing except the cycle
// number and a fixed set of per-cycle counters (stall, balancer-block
// and slot-forfeit counters). idleTarget() proves a cycle idle by
// testing each stage's gating read-only (decode's with the classifier
// and grant rule the tick uses) and computes the earliest
// future cycle at which any gate input can change; skipIdleTo() jumps
// there with the counters advanced arithmetically. Counters are affine
// in the gap length because every gate input is constant across the
// gap — which the equivalence suite (test_fast_forward.cc) and the
// skip-aware p5check protocol both verify. advance() (smt_core.hh)
// decides when to probe and whether to skip.

namespace {
constexpr FuClass issue_classes[] = {FuClass::FX, FuClass::FP,
                                     FuClass::LS, FuClass::BR};
} // namespace

bool
SmtCore::commitReady(ThreadId t) const
{
    const ThreadState &ts = *threads_[static_cast<size_t>(t)];
    return ts.attached() && !gct_.empty(t) &&
           gct_.oldest(t).unfinished == 0;
}

Cycle
SmtCore::nextInterestingCycle(Cycle limit, const DecodeGate &gate) const
{
    Cycle next = limit;
    const auto consider = [&next, this](Cycle c) {
        if (c > cycle_ && c < next)
            next = c;
    };

    if (!completions_.empty())
        consider(completions_.front().cycle);
    for (FuClass fc : issue_classes)
        if (!readyQ_.empty(fc))
            consider(fuPool_.nextFreeCycle(fc, cycle_));
    consider(lmq_.nextEventCycle(cycle_));
    consider(lsu_.nextEventCycle(cycle_));

    const DecodeSlotAllocator &alloc = arbiter_.allocator();
    const auto can_use = canUse(gate);
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<size_t>(t);
        const ThreadState &ts = *threads_[ti];
        if (!ts.attached())
            continue;
        if (cycle_ < ts.decodeBlockedUntil)
            consider(ts.decodeBlockedUntil);
        if (can_use[ti]) {
            // Usable but slotless: wake at its next owned slot, or —
            // work-conserving — at any slot it could inherit.
            consider(alloc.nextGrantCycle(cycle_, t));
            if (arbiter_.workConserving() && alloc.threadActive(t))
                consider(alloc.nextAnyGrantCycle(cycle_));
        }
    }
    return next;
}

void
SmtCore::skipIdleTo(Cycle target, const DecodeGate &gate)
{
    if (target <= cycle_)
        return;
    const std::uint64_t gap = target - cycle_;

    // The gate is constant across the gap (that is what made it idle),
    // so the gap charges what each of its ticks would have: the gate,
    // and a forfeit for every slot granted in it.
    chargeDecode(gate, gap);
    arbiter_.chargeForfeits(cycle_, target);

    if (checks_)
        checks_->onSkip(*this, cycle_, target);
    idleSkipped_ += gap;
    cycle_ = target;
    lmq_.advanceTo(cycle_);
}

SmtCore::IdleProbe
SmtCore::idleTarget(Cycle limit) const
{
    // Probe accounting, not simulation state (ffProbes_ is mutable).
    P5_ALLOW(probe_purity) ++ffProbes_;
    const IdleProbe busy{.target = cycle_, .gate = {}};
    if (!completions_.empty() && completions_.front().cycle <= cycle_)
        return busy;
    for (FuClass fc : issue_classes)
        if (!readyQ_.empty(fc) && fuPool_.freeUnit(fc, cycle_) >= 0)
            return busy;
    for (ThreadId t = 0; t < num_hw_threads; ++t)
        if (commitReady(t))
            return busy;

    DecodeGate gate{.bd = balancerDecision(), .stall = {}};
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<size_t>(t);
        const ThreadState &ts = *threads_[ti];
        if (!ts.attached())
            continue;
        // A flush that would drop instructions changes state: not an
        // idle cycle. Any other flush changes nothing but the flush
        // counter, so classifying without it is what decodeStage()
        // sees after it.
        if (gate.bd.flush[ti] && !ts.window.empty() &&
            ts.window.back().phase == InstrPhase::Dispatched)
            return busy;
        gate.stall[ti] = decodeStallOf(gate.bd, t);
    }
    // Idle only if no thread would decode: neither the slot owner nor,
    // work-conserving, its sibling.
    if (arbiter_.wouldGrant(cycle_, canUse(gate)) >= 0)
        return busy;
    return {.target = nextInterestingCycle(limit, gate), .gate = gate};
}

// --- the decode gate ----------------------------------------------------
//
// Inline: decodeStage() runs these every busy cycle, and with the probe
// as a second caller the compiler would otherwise keep them as calls.

inline BalancerDecision
SmtCore::balancerDecision() const
{
    const bool both_running = threads_[0]->attached() &&
                              threads_[1]->attached() &&
                              arbiter_.allocator().threadActive(0) &&
                              arbiter_.allocator().threadActive(1);
    return balancer_.probe(gct_, lmq_, lsu_, both_running, cycle_);
}

inline SmtCore::DecodeStall
SmtCore::decodeStallOf(const BalancerDecision &bd, ThreadId t) const
{
    const auto ti = static_cast<size_t>(t);
    if (bd.block[ti])
        return DecodeStall::Balancer;
    if (cycle_ < threads_[ti]->decodeBlockedUntil)
        return DecodeStall::Redirect;
    // GCT admission: the bigger holder must leave one free group for
    // the sibling, or a fast thread walls the slow one out of the
    // machine entirely.
    const ThreadId sib = static_cast<ThreadId>(1 - t);
    const bool bigger_holder =
        threads_[static_cast<size_t>(sib)]->attached() &&
        gct_.occupancyOf(t) > gct_.occupancyOf(sib);
    const int needed = bigger_holder ? 2 : 1;
    if (gct_.capacity() - gct_.occupancy() < needed)
        return DecodeStall::Gct;
    return DecodeStall::None;
}

inline std::array<bool, num_hw_threads>
SmtCore::canUse(const DecodeGate &gate) const
{
    std::array<bool, num_hw_threads> can_use{};
    for (size_t ti = 0; ti < num_hw_threads; ++ti)
        can_use[ti] = threads_[ti]->attached() &&
                      gate.stall[ti] == DecodeStall::None;
    return can_use;
}

inline void
SmtCore::chargeDecode(const DecodeGate &gate, std::uint64_t cycles)
{
    balancer_.charge(gate.bd, cycles);
    for (size_t ti = 0; ti < num_hw_threads; ++ti)
        if (gate.stall[ti] != DecodeStall::None)
            stalls_[static_cast<size_t>(gate.stall[ti]) - 1][ti] += cycles;
}

// --- pipeline stages ---------------------------------------------------

void
SmtCore::processCompletions()
{
    while (!completions_.empty() &&
           completions_.front().cycle <= cycle_) {
        tickProgress_ = true;
        const Completion c = completions_.front();
        std::pop_heap(completions_.begin(), completions_.end(),
                      CompletionLater{});
        completions_.pop_back();
        ThreadState &ts = *threads_[static_cast<size_t>(c.tid)];
        InFlight *e = ts.resolve(c.slot, c.seq, c.epoch);
        if (!e || e->phase != InstrPhase::Issued)
            continue; // squashed since issue
        e->phase = InstrPhase::Finished;
        gct_.finishOne(c.tid, e->gctGroup, e->di.seq);

        if (e->di.isBranch()) {
            bht_.update(e->di.pc, e->di.branchTaken);
            if (e->di.mispredicted()) {
                ++ts.mispredictsCtr;
                squashAfter(ts, e->di.seq, true);
                // NOTE: squashAfter only removes *younger* entries, so
                // the pointer e (the branch itself) stays valid.
            }
        }
        wakeDependents(ts, *e);
    }
}

void
SmtCore::wakeDependents(ThreadState &ts, InFlight &e)
{
    // Every edge names a live Dispatched consumer still waiting on this
    // source: a squash trims its victims from the lists, and nothing
    // else removes a waiting consumer.
    for (std::uint32_t edge = e.wakeHead; edge != no_wake_edge;
         edge = ts.nextWake(edge)) {
        InFlight &d = ts.wakeConsumer(edge);
        if (--d.pendingSrcs == 0)
            pushReady(ts, d);
    }
    e.wakeHead = no_wake_edge;
}

void
SmtCore::pushReady(ThreadState &ts, InFlight &e)
{
    if (e.inReadyQueue)
        return;
    e.inReadyQueue = true;
    readyQ_.push(fuClassOf(e.di.op), {.stamp = e.stamp,
                                      .seq = e.di.seq,
                                      .epoch = e.epoch,
                                      .tid = ts.tid(),
                                      .slot = ts.window.physIndexOf(&e)});
}

void
SmtCore::issueStage()
{
    for (FuClass fc : issue_classes) {
        while (!readyQ_.empty(fc)) {
            // Issue holds the unit found here; nothing below frees or
            // takes a unit before occupy().
            const int unit = fuPool_.freeUnit(fc, cycle_);
            if (unit < 0)
                break;
            tickProgress_ = true;
            ReadyRef ref = readyQ_.pop(fc);
            ThreadState &ts = *threads_[static_cast<size_t>(ref.tid)];
            InFlight *e = ts.resolve(ref.slot, ref.seq, ref.epoch);
            if (!e || e->phase != InstrPhase::Dispatched ||
                e->pendingSrcs > 0)
                continue; // stale reference
            e->inReadyQueue = false;

            Cycle done;
            if (e->di.isLoad()) {
                MemAccessResult res =
                    lsu_.issueLoad(ref.tid, e->di.addr, cycle_);
                done = res.doneCycle;
            } else if (e->di.isStore()) {
                lsu_.issueStore(ref.tid, e->di.addr, cycle_);
                done = cycle_ + static_cast<Cycle>(opLatency(e->di.op));
            } else {
                done = cycle_ + static_cast<Cycle>(opLatency(e->di.op));
            }

            fuPool_.occupy(fc, unit, cycle_, params_.fuOccupancy(e->di.op));

            e->phase = InstrPhase::Issued;
            e->di.completeCycle = done;
            // Heap storage is pre-reserved in the constructor; push
            // only spills past the high-water mark of in-flight ops.
            P5_ALLOW(hot_path_no_alloc)
            completions_.push_back({.cycle = done,
                                    .seq = ref.seq,
                                    .epoch = ref.epoch,
                                    .tid = ref.tid,
                                    .slot = ref.slot});
            std::push_heap(completions_.begin(), completions_.end(),
                           CompletionLater{});
        }
    }
}

void
SmtCore::commitStage()
{
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        ThreadState &ts = *threads_[static_cast<size_t>(t)];
        if (!ts.attached() || gct_.empty(t))
            continue;

        const GctGroup group = gct_.oldest(t);
        if (group.unfinished != 0)
            continue;

        tickProgress_ = true;
        for (int i = 0; i < group.count; ++i) {
            InFlight &e = ts.window.front();
            if (e.di.seq != group.startSeq + static_cast<SeqNum>(i))
                panic("commit: window head out of sync with GCT");
            if (e.di.op == OpClass::PrioNop) {
                const int level = priorityFromOrNop(e.di.prioNopReg);
                bool applied = false;
                if (level >= 0)
                    applied = requestPriority(t, level, ts.privilege);
                if (applied)
                    ++ts.prioNopsApplied;
                else
                    ++ts.prioNopsIgnored;
                if (prioNopListener_)
                    prioNopListener_(t, level, applied);
            }
            ts.window.pop_front();
            ++ts.committed;
            ++ts.committedCtr;
        }
        gct_.popOldest(t);

        const std::uint64_t execs =
            ts.stream().executionsAt(ts.committed);
        if (execs > ts.executionsCompleted) {
            ts.executionsCompleted = execs;
            ts.lastExecutionCycle = cycle_ + 1;
        }
    }
}

void
SmtCore::decodeStage()
{
    DecodeGate gate{.bd = balancerDecision(), .stall = {}};
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<size_t>(t);
        ThreadState &ts = *threads_[ti];
        if (!ts.attached())
            continue;
        // Flush t just before classifying it: the groups a flush of
        // thread 0 frees count for thread 1's admission, not the
        // other way round.
        if (gate.bd.flush[ti])
            flushDispatched(ts);
        gate.stall[ti] = decodeStallOf(gate.bd, t);
    }
    chargeDecode(gate, 1);

    SlotGrant grant = arbiter_.decide(cycle_, canUse(gate));
    if (grant.owner < 0)
        return;

    tickProgress_ = true;
    ThreadState &ts = *threads_[static_cast<size_t>(grant.owner)];
    const int width = std::min(grant.maxWidth, params_.groupSize);

    // Fetch (and predict) the group straight into window slots; the
    // GCT admits the group before any of it is renamed, because a nop
    // finishes at dispatch into its group.
    const std::size_t first = ts.window.size();
    int count = 0;
    while (count < width) {
        InFlight &e = ts.window.pushSlot();
        e.di = ts.stream().fetch();
        ++count;
        if (e.di.isBranch()) {
            e.di.branchPredictedTaken = bht_.predict(e.di.pc);
            break; // branches end dispatch groups
        }
    }

    const std::uint32_t gct_group =
        gct_.allocate(grant.owner, ts.window[first].di.seq, count);
    for (std::size_t i = first; i < ts.window.size(); ++i)
        dispatchOne(ts, ts.window[i], gct_group);
    decoded_[static_cast<size_t>(grant.owner)] +=
        static_cast<std::uint64_t>(count);
}

void
SmtCore::dispatchOne(ThreadState &ts, InFlight &e, std::uint32_t gct_group)
{
    // e is a freshly pushed window slot whose di decode just fetched;
    // every other field still holds the previous occupant's values.
    const DynInstr &di = e.di;
    e.phase = InstrPhase::Dispatched;
    e.epoch = ts.epoch;
    e.stamp = dispatchStamp_++;
    e.inReadyQueue = false;
    e.gctGroup = gct_group;
    e.wakeHead = no_wake_edge;

    if (fuClassOf(di.op) == FuClass::None) {
        // Nops and priority nops consume decode/commit bandwidth only:
        // they wait on nothing, so they join no wake list.
        e.phase = InstrPhase::Finished;
        e.pendingSrcs = 0;
        gct_.finishOne(ts.tid(), gct_group, di.seq);
    } else {
        const std::uint32_t slot = ts.window.physIndexOf(&e);
        int pending = 0;
        const RegIndex srcs[] = {di.src0, di.src1};
        for (int k = 0; k < 2; ++k) {
            if (srcs[k] == invalid_reg)
                continue;
            const RenameEntry &re = ts.renameMap[srcs[k]];
            if (!re.valid)
                continue;
            InFlight *producer = ts.find(re.seq, re.epoch);
            if (producer && producer->phase != InstrPhase::Finished) {
                ++pending;
                ts.linkWake(*producer, slot, k);
            }
        }
        e.pendingSrcs = pending;
        if (pending == 0)
            pushReady(ts, e);
    }

    if (di.dst != invalid_reg) {
        RenameEntry &re = ts.renameMap[di.dst];
        re.valid = true;
        re.seq = di.seq;
        re.epoch = e.epoch;
    }
}

void
SmtCore::squashAfter(ThreadState &ts, SeqNum last_good_seq,
                     bool redirect_penalty)
{
    std::uint64_t squashed = 0;
    while (!ts.window.empty() &&
           ts.window.back().di.seq > last_good_seq) {
        ts.window.pop_back();
        ++squashed;
    }
    if (squashed > 0) {
        ts.squashedCtr += squashed;
        ++ts.epoch;
        gct_.squashFrom(ts.tid(), last_good_seq + 1);
        recountGroups(ts, gct_.occupancyOf(ts.tid()) - 1);
        ts.repairAfterSquash();
        ts.stream().rewindTo(last_good_seq + 1);
    }
    if (redirect_penalty) {
        const Cycle until = cycle_ + 1 +
                            static_cast<Cycle>(params_.mispredictPenalty);
        if (until > ts.decodeBlockedUntil)
            ts.decodeBlockedUntil = until;
    }
}

void
SmtCore::flushDispatched(ThreadState &ts)
{
    if (ts.window.empty())
        return;
    SeqNum first_bad = never_cycle;
    std::uint64_t flushed = 0;
    while (!ts.window.empty() &&
           ts.window.back().phase == InstrPhase::Dispatched) {
        first_bad = ts.window.back().di.seq;
        ts.window.pop_back();
        ++flushed;
    }
    if (flushed == 0)
        return;
    tickProgress_ = true;
    flushedInstrs_[static_cast<size_t>(ts.tid())] += flushed;
    ts.squashedCtr += flushed;
    ++ts.epoch;
    gct_.squashFrom(ts.tid(), first_bad);
    recountGroups(ts, gct_.occupancyOf(ts.tid()) - 1);
    ts.repairAfterSquash();
    ts.stream().rewindTo(first_bad);
}

void
SmtCore::recountGroups(ThreadState &ts, int first)
{
    // The window holds exactly the groups' instructions, in order, so
    // walking both from the young end pairs each group with its own.
    const ThreadId t = ts.tid();
    const RingDeque<GctGroup> &groups = gct_.groupsOf(t);
    std::size_t w = ts.window.size();
    for (int i = static_cast<int>(groups.size()) - 1; i >= first && i >= 0;
         --i) {
        const GctGroup &g = groups[static_cast<std::size_t>(i)];
        const std::uint32_t handle = groups.physIndexOf(&g);
        int unfinished = 0;
        for (int k = g.count - 1; k >= 0; --k) {
            if (w == 0)
                panic("GCT group of thread %d outruns the window", t);
            InFlight &e = ts.window[--w];
            if (e.di.seq != g.startSeq + static_cast<SeqNum>(k))
                panic("window of thread %d out of sync with the GCT", t);
            e.gctGroup = handle;
            unfinished += e.phase != InstrPhase::Finished;
        }
        gct_.setUnfinished(t, static_cast<std::size_t>(i), unfinished);
    }
}

} // namespace p5
