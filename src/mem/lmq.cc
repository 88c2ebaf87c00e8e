#include "mem/lmq.hh"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/log.hh"

namespace p5 {

namespace {

/** Edge order (by edge cycle, then window) — total, so the edge list
 *  of a given window set is unique whatever the insertion history. */
bool
edgeBefore(const Lmq::Edge &a, const Lmq::Edge &b)
{
    return std::tie(a.cycle, a.window.startCycle, a.window.releaseCycle,
                    a.window.tid) < std::tie(b.cycle, b.window.startCycle,
                                             b.window.releaseCycle,
                                             b.window.tid);
}

} // namespace

Lmq::Lmq(int entries) : capacity_(entries)
{
    if (entries <= 0)
        fatal("LMQ needs at least one entry");
    edges_.reserve(std::max<std::size_t>(
        64, static_cast<std::size_t>(entries) * 4));
}

void
Lmq::unsynced(Cycle now) const
{
    panic("LMQ queried at cycle %llu but synced to cycle %llu",
          static_cast<unsigned long long>(now),
          static_cast<unsigned long long>(now_));
}

std::size_t
Lmq::insert(const Window &w)
{
    // New edges are mostly the latest, so walk in from the back.
    const Edge e{edgeOf(w), w};
    edges_.push_back(e);
    std::size_t i = edges_.size() - 1;
    for (; i > 0 && edgeBefore(e, edges_[i - 1]); --i)
        edges_[i] = edges_[i - 1];
    edges_[i] = e;
    return i;
}

std::size_t
Lmq::refile(std::size_t i)
{
    edges_[i].cycle = edgeOf(edges_[i].window);
    for (; i > 0 && edgeBefore(edges_[i], edges_[i - 1]); --i)
        std::swap(edges_[i], edges_[i - 1]);
    for (; i + 1 < edges_.size() && edgeBefore(edges_[i + 1], edges_[i]);
         ++i)
        std::swap(edges_[i], edges_[i + 1]);
    return i;
}

void
Lmq::advanceAcross(Cycle now)
{
    if (now < now_)
        panic("LMQ advanced backwards (%llu -> %llu)",
              static_cast<unsigned long long>(now_),
              static_cast<unsigned long long>(now));
    const Cycle from = now_;
    now_ = now;
    last_ = no_reservation;
    while (!edges_.empty() && edges_.front().cycle <= now) {
        const Window w = edges_.front().window;
        edges_.pop_front();
        if (w.startCycle > from) {
            // A start edge. The window is busy unless it also released
            // within the jump; a busy one is refiled under its release,
            // which lies beyond now, so the pops below are unaffected.
            if (w.releaseCycle > now) {
                ++busy_[static_cast<std::size_t>(w.tid)];
                insert(w);
            }
        } else {
            --busy_[static_cast<std::size_t>(w.tid)];
        }
    }
}

Cycle
Lmq::reserve(ThreadId tid, Cycle now, Cycle start_cycle,
             Cycle release_cycle)
{
    advanceTo(now);
    if (start_cycle < now)
        panic("LMQ window starts before the current cycle");
    if (release_cycle <= start_cycle)
        panic("LMQ window must have positive duration");

    const Cycle requested = start_cycle;
    // Fewer stored windows than entries can never fill the queue.
    while (edges_.size() >= static_cast<std::size_t>(capacity_)) {
        // One pass finds the windows overlapping the candidate and the
        // earliest release among them. While they fill the queue, push
        // the candidate to that release: each step retires at least
        // one blocker, so the loop terminates.
        int blockers = 0;
        Cycle next = never_cycle;
        for (const Edge &e : edges_) {
            const Window &w = e.window;
            if (w.startCycle < release_cycle &&
                w.releaseCycle > start_cycle) {
                ++blockers;
                next = std::min(next, w.releaseCycle);
            }
        }
        if (blockers < capacity_)
            break;
        release_cycle += next - start_cycle;
        start_cycle = next;
    }

    if (start_cycle > requested) {
        ++queuedMisses_;
        queuedCycles_ += start_cycle - requested;
    }
    if (start_cycle == now_)
        ++busy_[static_cast<std::size_t>(tid)];
    last_ = insert({tid, start_cycle, release_cycle});
    ++allocations_;
    return start_cycle;
}

void
Lmq::updateLastRelease(Cycle release_cycle)
{
    if (last_ == no_reservation)
        panic("LMQ updateLastRelease with no reservation this cycle");
    Window &w = edges_[last_].window;
    if (release_cycle <= w.startCycle)
        panic("LMQ release before start");
    // The window starts at or after now_, so it stays stored; refile it
    // (a busy window's edge is its release, and ties order by release).
    w.releaseCycle = release_cycle;
    last_ = refile(last_);
}

void
Lmq::releaseThread(ThreadId tid)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < edges_.size(); ++i)
        if (edges_[i].window.tid != tid)
            edges_[kept++] = edges_[i];
    while (edges_.size() > kept)
        edges_.pop_back();
    busy_[static_cast<std::size_t>(tid)] = 0;
    last_ = no_reservation;
}

void
Lmq::reset()
{
    edges_.clear();
    busy_ = {};
    last_ = no_reservation;
}

void
Lmq::registerStats(StatGroup &group) const
{
    group.registerCounter("lmq.allocations", &allocations_);
    group.registerCounter("lmq.queuedMisses", &queuedMisses_);
    group.registerCounter("lmq.queuedCycles", &queuedCycles_);
}

} // namespace p5
