#include "core/gct.hh"

#include "common/annotate.hh"
#include "common/log.hh"

namespace p5 {

Gct::Gct(int num_groups) : capacity_(num_groups)
{
    if (num_groups <= 0)
        fatal("GCT needs at least one group");
    // Occupancy never exceeds capacity, so pre-sizing the rings here
    // keeps the per-cycle allocate/retire path allocation-free.
    for (auto &q : groups_)
        q.reserve(static_cast<std::size_t>(num_groups));
}

std::uint32_t
Gct::allocate(ThreadId tid, SeqNum start_seq, int count)
{
    if (!hasFreeGroup())
        panic("GCT allocate with no free group");
    if (count <= 0)
        panic("GCT allocate with count %d", count);
    auto &q = groups_[static_cast<size_t>(tid)];
    if (!q.empty()) {
        const GctGroup &last = q.back();
        if (start_seq != last.startSeq + static_cast<SeqNum>(last.count))
            panic("GCT groups of thread %d not contiguous", tid);
    }
    // Rings are pre-sized to full GCT capacity in the constructor;
    // occupancy can never exceed it, so this push never reallocates.
    P5_ALLOW(hot_path_no_alloc) q.push_back({start_seq, count, count});
    ++allocated_;
    return q.physIndexOf(&q.back());
}

GctGroup *
Gct::findUnfinished(ThreadId tid, SeqNum seq)
{
    auto &q = groups_[static_cast<size_t>(tid)];
    GctGroup *g = nullptr;
    for (std::size_t i = 0; i < q.size() && !g; ++i)
        if (q[i].contains(seq))
            g = &q[i];
    if (!g)
        panic("GCT finishOne: seq %llu of thread %d in no group",
              static_cast<unsigned long long>(seq), tid);
    if (g->unfinished <= 0)
        panic("GCT finishOne: group at seq %llu already finished",
              static_cast<unsigned long long>(g->startSeq));
    return g;
}

void
Gct::setUnfinished(ThreadId tid, std::size_t i, int unfinished)
{
    groups_[static_cast<size_t>(tid)][i].unfinished = unfinished;
}

void
Gct::panicNoOldest(ThreadId tid) const
{
    panic("GCT oldest() on empty thread %d", tid);
}

void
Gct::popOldest(ThreadId tid)
{
    auto &q = groups_[static_cast<size_t>(tid)];
    if (q.empty())
        panic("GCT popOldest() on empty thread %d", tid);
    q.pop_front();
    ++retired_;
}

void
Gct::squash(ThreadId tid, SeqNum last_good_seq)
{
    squashFrom(tid, last_good_seq + 1);
}

void
Gct::squashFrom(ThreadId tid, SeqNum first_bad_seq)
{
    auto &q = groups_[static_cast<size_t>(tid)];
    while (!q.empty()) {
        GctGroup &g = q.back();
        if (g.startSeq >= first_bad_seq) {
            q.pop_back();
            continue;
        }
        const SeqNum end = g.startSeq + static_cast<SeqNum>(g.count);
        if (end > first_bad_seq)
            g.count = static_cast<int>(first_bad_seq - g.startSeq);
        break;
    }
}

void
Gct::clearThread(ThreadId tid)
{
    groups_[static_cast<size_t>(tid)].clear();
}

void
Gct::registerStats(StatGroup &group) const
{
    group.registerCounter("gct.allocated", &allocated_);
    group.registerCounter("gct.retired", &retired_);
}

} // namespace p5
