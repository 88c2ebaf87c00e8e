#include "mem/hierarchy.hh"

#include <algorithm>

#include "common/log.hh"

namespace p5 {

const char *
memLevelName(MemLevel level)
{
    switch (level) {
      case MemLevel::L1:
        return "L1";
      case MemLevel::L2:
        return "L2";
      case MemLevel::L3:
        return "L3";
      case MemLevel::Mem:
        return "Mem";
      default:
        panic("memLevelName: bad level %d", static_cast<int>(level));
    }
}

MemBackside::MemBackside(const HierarchyParams &params)
    : params_(params), l2_(params.l2), l3_(params.l3)
{
}

MemLevel
MemBackside::walk(Addr addr)
{
    if (l2_.access(addr))
        return MemLevel::L2;
    if (l3_.access(addr))
        return MemLevel::L3;
    return MemLevel::Mem;
}

Cycle
MemBackside::serve(MemLevel level, Cycle now, Cycle ready)
{
    if (level == MemLevel::L2)
        return l2_.reserveService(now, ready) +
               static_cast<Cycle>(params_.l2.hitLatency);
    if (level == MemLevel::L3)
        return l3_.reserveService(now, ready) +
               static_cast<Cycle>(params_.l3.hitLatency);
    const Cycle start = std::max(ready, dramNextFree_);
    // As in Cache::reserveService: consume DRAM bandwidth in request
    // order so future-scheduled accesses don't block earlier ones.
    dramNextFree_ = std::min(start, std::max(now, dramNextFree_)) +
                    static_cast<Cycle>(params_.dramServiceGap);
    return start + static_cast<Cycle>(params_.dramLatency);
}

void
MemBackside::flushAll()
{
    l2_.flushAll();
    l3_.flushAll();
    dramNextFree_ = 0;
}

void
MemBackside::registerStats(StatGroup &group) const
{
    l2_.registerStats(group);
    l3_.registerStats(group);
}

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               MemBackside *shared)
    : params_(params), l1d_(params.l1d)
{
    if (shared) {
        backside_ = shared;
    } else {
        ownedBackside_ = std::make_unique<MemBackside>(params);
        backside_ = ownedBackside_.get();
    }
    for (int t = 0; t < num_hw_threads; ++t) {
        TlbParams tp = params.tlb;
        tp.name = tp.name + std::to_string(t);
        tlbs_[static_cast<size_t>(t)] = std::make_unique<Tlb>(tp);
    }
}

MemAccessResult
CacheHierarchy::access(ThreadId tid, Addr addr, Cycle now)
{
    const TlbResult tr = tlb(tid).access(addr);
    if (!tr.hit)
        ++tlbMisses_[static_cast<size_t>(tid)];
    MemAccessResult res;
    res.tlbMiss = !tr.hit;
    res.level = walk(tid, addr);
    res.doneCycle =
        serve(res.level, now, now + static_cast<Cycle>(tr.latency));
    return res;
}

MemLevel
CacheHierarchy::walk(ThreadId tid, Addr addr)
{
    if (l1d_.access(addr))
        return MemLevel::L1;
    ++l1Misses_[static_cast<size_t>(tid)];
    const MemLevel level = backside_->walk(addr);
    if (level != MemLevel::L2)
        ++beyondL2_[static_cast<size_t>(tid)];
    return level;
}

Cycle
CacheHierarchy::serve(MemLevel level, Cycle now, Cycle ready)
{
    if (level == MemLevel::L1)
        return ready + static_cast<Cycle>(params_.l1d.hitLatency);
    return backside_->serve(level, now, ready);
}

void
CacheHierarchy::flushAll()
{
    l1d_.flushAll();
    backside_->flushAll();
    for (auto &tlb : tlbs_)
        tlb->flushAll();
}

void
CacheHierarchy::registerStats(StatGroup &group) const
{
    l1d_.registerStats(group);
    if (ownedBackside_)
        ownedBackside_->registerStats(group);
    for (int t = 0; t < num_hw_threads; ++t) {
        auto ts = std::to_string(t);
        tlbs_[static_cast<size_t>(t)]->registerStats(group);
        group.registerCounter("thread" + ts + ".tlbMisses",
                              &tlbMisses_[static_cast<size_t>(t)]);
        group.registerCounter("thread" + ts + ".l1Misses",
                              &l1Misses_[static_cast<size_t>(t)]);
        group.registerCounter("thread" + ts + ".beyondL2",
                              &beyondL2_[static_cast<size_t>(t)]);
    }
}

} // namespace p5
