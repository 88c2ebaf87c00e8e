#include "core/balancer.hh"

namespace p5 {

Balancer::Balancer(const BalancerParams &params) : params_(params) {}

void
Balancer::setPriorityView(const DecodeSlotAllocator *allocator)
{
    priorities_ = allocator;
}

BalancerDecision
Balancer::probe(const Gct &gct, const Lmq &lmq, const Lsu &lsu,
                bool both_running, Cycle now) const
{
    BalancerDecision d;
    if (!params_.enabled)
        return d;

    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<size_t>(t);

        // Resource hogging is only "offending" when there is a sibling
        // to block.
        if (!both_running)
            continue;

        // An outstanding TLB walk blocks further decode of the walking
        // thread (it would only pile more work behind the walk).
        if (params_.blockOnTlbMiss && lsu.tlbWalkInProgress(t, now)) {
            d.block[ti] = true;
            d.reason[ti] = BalanceBlock::Tlb;
            continue;
        }

        const int gct_held = gct.occupancyOf(t);
        const bool gct_hog =
            gct_held > params_.minGctGroups &&
            static_cast<double>(gct_held) >
                gctThresholdFor(t) * gct.capacity();
        if (gct_hog) {
            d.block[ti] = true;
            d.reason[ti] = BalanceBlock::Gct;
            if (params_.action == BalanceAction::Flush)
                d.flush[ti] = true;
            continue;
        }

        if (lmq.busyOfAt(t, now) >=
            lmqThresholdFor(t, lmq.capacity())) {
            d.block[ti] = true;
            d.reason[ti] = BalanceBlock::Lmq;
        }
    }
    return d;
}

void
Balancer::charge(const BalancerDecision &d, std::uint64_t cycles)
{
    for (size_t ti = 0; ti < num_hw_threads; ++ti) {
        switch (d.reason[ti]) {
          case BalanceBlock::None:
            break;
          case BalanceBlock::Tlb:
            tlbBlocks_[ti] += cycles;
            break;
          case BalanceBlock::Gct:
            gctBlocks_[ti] += cycles;
            if (d.flush[ti])
                flushes_[ti] += cycles;
            break;
          case BalanceBlock::Lmq:
            lmqBlocks_[ti] += cycles;
            break;
        }
    }
}

BalancerDecision
Balancer::evaluate(const Gct &gct, const Lmq &lmq, const Lsu &lsu,
                   bool both_running, Cycle now)
{
    BalancerDecision d = probe(gct, lmq, lsu, both_running, now);
    charge(d, 1);
    return d;
}

void
Balancer::registerStats(StatGroup &group) const
{
    for (int t = 0; t < num_hw_threads; ++t) {
        auto ts = std::to_string(t);
        group.registerCounter("balancer.thread" + ts + ".gctBlocks",
                              &gctBlocks_[static_cast<size_t>(t)]);
        group.registerCounter("balancer.thread" + ts + ".lmqBlocks",
                              &lmqBlocks_[static_cast<size_t>(t)]);
        group.registerCounter("balancer.thread" + ts + ".tlbBlocks",
                              &tlbBlocks_[static_cast<size_t>(t)]);
        group.registerCounter("balancer.thread" + ts + ".flushes",
                              &flushes_[static_cast<size_t>(t)]);
    }
}

} // namespace p5
