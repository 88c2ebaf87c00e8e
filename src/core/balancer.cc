#include "core/balancer.hh"

#include <algorithm>
#include <cmath>

namespace p5 {

const Balancer::PairAllocators &
Balancer::pairAllocators()
{
    // The mode and the slot shares the thresholds scale by depend on
    // the pair alone, so one allocator per pair serves every balancer.
    static const PairAllocators table = [] {
        PairAllocators t;
        for (int p = 0; p < num_levels; ++p)
            for (int s = 0; s < num_levels; ++s)
                t[static_cast<std::size_t>(p * num_levels + s)]
                    .setPriorities(p, s);
        return t;
    }();
    return table;
}

Balancer::Balancer(const BalancerParams &params, int gct_capacity,
                   int lmq_capacity)
    : params_(params), gctCapacity_(gct_capacity),
      lmqCapacity_(lmq_capacity)
{
    unscaled_ = limitsFor(nullptr);
    for (std::size_t i = 0; i < num_pairs; ++i)
        pairs_[i] = limitsFor(&pairAllocators()[i]);
}

void
Balancer::setPriorityView(const DecodeSlotAllocator *allocator)
{
    priorities_ = allocator;
}

double
Balancer::gctThresholdFor(ThreadId tid,
                          const DecodeSlotAllocator *slots) const
{
    if (!params_.priorityAwareGct || !slots ||
        slots->mode() != SlotMode::Dual)
        return params_.gctShareThreshold;
    const double scaled =
        params_.gctShareThreshold * 2.0 * slots->shareOf(tid);
    return std::clamp(scaled, params_.minGctShareThreshold,
                      params_.maxGctShareThreshold);
}

int
Balancer::lmqThresholdFor(ThreadId tid,
                          const DecodeSlotAllocator *slots) const
{
    if (!params_.priorityAwareLmq || !slots ||
        slots->mode() != SlotMode::Dual)
        return params_.lmqThreshold;
    const double scaled = params_.lmqThreshold * 2.0 * slots->shareOf(tid);
    return std::clamp(static_cast<int>(scaled), 1,
                      std::max(1, lmqCapacity_ - 1));
}

Balancer::PairLimits
Balancer::limitsFor(const DecodeSlotAllocator *slots) const
{
    // A GCT hog holds held > minGctGroups groups and, as a double,
    // held > x = threshold * capacity. For an integer held and x >= 0,
    // held > x exactly when held > floor(x), so both tests fold into
    // one integer compare against the floor of the very same product.
    PairLimits lim;
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        const double x = gctThresholdFor(t, slots) * gctCapacity_;
        lim.gctAbove[ti] =
            std::max(params_.minGctGroups, static_cast<int>(std::floor(x)));
        lim.lmqAtLeast[ti] = lmqThresholdFor(t, slots);
    }
    return lim;
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
