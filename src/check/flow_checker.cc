#include "check/checkers.hh"

#include <set>
#include <tuple>
#include <vector>

#include "core/smt_core.hh"

namespace p5::check {

namespace {

/** Const re-implementation of ThreadState::find() for observers. */
const InFlight *
findInWindow(const ThreadState &ts, SeqNum seq, std::uint64_t epoch)
{
    const auto &win = ts.window;
    if (win.empty())
        return nullptr;
    const SeqNum head = win.front().di.seq;
    if (seq < head)
        return nullptr;
    const std::uint64_t idx = seq - head;
    if (idx >= win.size())
        return nullptr;
    const InFlight *e = &win[static_cast<std::size_t>(idx)];
    return e->epoch == epoch ? e : nullptr;
}

} // namespace

void
FlowChecker::checkWakeLists(const ThreadState &ts, Cycle cycle)
{
    const RingDeque<InFlight> &win = ts.window;
    const ThreadId t = ts.tid();
    // In-edges per live consumer slot, counted from the producers' side.
    std::vector<int> in_edges(win.capacity(), 0);
    for (const InFlight &p : win) {
        std::size_t steps = 0;
        for (std::uint32_t edge = p.wakeHead; edge != no_wake_edge;
             edge = ts.nextWake(edge)) {
            const std::uint32_t slot = edge >> 1;
            if (++steps > 2 * win.capacity() || !win.livePhys(slot) ||
                win.slotAt(slot).di.seq <= p.di.seq) {
                fail(cycle, t, "wake-list",
                     "seq " + std::to_string(p.di.seq) +
                         " wakes only live, younger consumers",
                     "edge " + std::to_string(edge));
                break;
            }
            ++in_edges[slot];
        }
        if (p.phase == InstrPhase::Finished && p.wakeHead != no_wake_edge)
            fail(cycle, t, "wake-list",
                 "finished seq " + std::to_string(p.di.seq) +
                     " holds no wake edges",
                 "edge " + std::to_string(p.wakeHead));
    }
    for (const InFlight &c : win) {
        const int edges = in_edges[win.physIndexOf(&c)];
        if (c.phase == InstrPhase::Dispatched && c.pendingSrcs != edges)
            fail(cycle, t, "wake-list",
                 "seq " + std::to_string(c.di.seq) + " on " +
                     std::to_string(c.pendingSrcs) +
                     " wake lists (its pending sources)",
                 "on " + std::to_string(edges));
    }
}

void
FlowChecker::onCycle(const SmtCore &core, Cycle cycle)
{
    // Flow conservation per thread: every decoded instruction is either
    // committed, squashed/flushed, or still in flight. Checked in delta
    // form each cycle so drift is caught the moment it appears.
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        const ThreadState &ts = core.thread(t);
        ThreadCounters cur;
        cur.decoded = core.decodedOf(t);
        cur.committed = core.committedOf(t);
        cur.squashed = ts.squashedCtr.value();
        cur.windowSize = ts.window.size();
        cur.bindings = ts.bindings;
        cur.attached = ts.attached();

        // A detach drops the window unsquashed: re-baseline on any
        // change of binding.
        const ThreadCounters &prev = prev_[ti];
        const bool stable = primed_ && cur.attached == prev.attached &&
                            cur.bindings == prev.bindings &&
                            cur.committed >= prev.committed &&
                            cur.decoded >= prev.decoded;
        if (stable) {
            const auto decoded_d =
                static_cast<std::int64_t>(cur.decoded - prev.decoded);
            const auto retired_d =
                static_cast<std::int64_t>(cur.committed - prev.committed) +
                static_cast<std::int64_t>(cur.squashed - prev.squashed);
            const auto window_d =
                static_cast<std::int64_t>(cur.windowSize) -
                static_cast<std::int64_t>(prev.windowSize);
            if (decoded_d != retired_d + window_d) {
                fail(cycle, t, "flow-conservation",
                     "decoded == committed + squashed + in-flight "
                     "(delta " +
                         std::to_string(retired_d + window_d) + ")",
                     "decoded delta " + std::to_string(decoded_d));
            }
        }
        prev_[ti] = cur;
    }
    primed_ = true;

    // FU accounting: free units stay within the configured pool.
    static constexpr FuClass fu_classes[] = {FuClass::FX, FuClass::FP,
                                             FuClass::LS, FuClass::BR};
    for (FuClass fc : fu_classes) {
        const int free = core.fuPool().freeUnits(fc, cycle);
        const int count = core.fuPool().unitCount(fc);
        if (free < 0 || free > count) {
            fail(cycle, -1, "fu-busy-count",
                 "0.." + std::to_string(count) + " free " +
                     fuClassName(fc) + " units",
                 std::to_string(free));
        }
    }

    // Ready-queue sanity: every live entry references a dispatched,
    // operand-ready instruction of the right unit class, exactly once;
    // conversely every ready-to-issue instruction is queued (no lost
    // wakeups).
    std::set<std::tuple<ThreadId, SeqNum, std::uint64_t>> queued;
    for (FuClass fc : fu_classes) {
        for (const ReadyRef &ref : core.readyQueue().entries(fc)) {
            const InFlight *e =
                findInWindow(core.thread(ref.tid), ref.seq, ref.epoch);
            if (!e)
                continue; // squashed since enqueue: stale, harmless
            if (!queued.emplace(ref.tid, ref.seq, ref.epoch).second) {
                fail(cycle, ref.tid, "ready-duplicate",
                     "each in-flight instruction queued at most once",
                     "seq " + std::to_string(ref.seq) +
                         " queued twice");
                continue;
            }
            if (fuClassOf(e->di.op) != fc) {
                fail(cycle, ref.tid, "ready-class",
                     std::string(fuClassName(fuClassOf(e->di.op))) +
                         " queue for seq " + std::to_string(ref.seq),
                     fuClassName(fc));
            }
            if (e->phase != InstrPhase::Dispatched) {
                fail(cycle, ref.tid, "ready-phase",
                     "queued instruction still dispatched (seq " +
                         std::to_string(ref.seq) + ")",
                     "phase " +
                         std::to_string(static_cast<int>(e->phase)));
            } else if (e->pendingSrcs != 0) {
                fail(cycle, ref.tid, "ready-pending-sources",
                     "queued instruction has no pending sources",
                     std::to_string(e->pendingSrcs) + " pending");
            } else if (!e->inReadyQueue) {
                fail(cycle, ref.tid, "ready-flag",
                     "queued instruction flagged inReadyQueue",
                     "flag clear for seq " + std::to_string(ref.seq));
            }
        }
    }
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const ThreadState &ts = core.thread(t);
        if (!ts.attached())
            continue;
        checkWakeLists(ts, cycle);
        for (const InFlight &e : ts.window) {
            // Only a completion finishes an executing instruction, and
            // not before its result is due: an early finish means a
            // stale completion validated against the wrong instruction.
            if (e.phase == InstrPhase::Finished &&
                fuClassOf(e.di.op) != FuClass::None &&
                e.di.completeCycle > cycle) {
                fail(cycle, t, "finished-before-complete",
                     "seq " + std::to_string(e.di.seq) +
                         " finished at or after cycle " +
                         std::to_string(e.di.completeCycle),
                     "finished by cycle " + std::to_string(cycle));
            }
            if (e.phase != InstrPhase::Dispatched || e.pendingSrcs != 0 ||
                fuClassOf(e.di.op) == FuClass::None)
                continue;
            if (!queued.count({t, e.di.seq, e.epoch})) {
                fail(cycle, t, "lost-wakeup",
                     "ready instruction present in the issue queues "
                     "(seq " +
                         std::to_string(e.di.seq) + ")",
                     "not queued");
            }
        }
    }
}

} // namespace p5::check
