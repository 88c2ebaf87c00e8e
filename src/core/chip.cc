#include "core/chip.hh"

#include <cassert>

#include "common/log.hh"

namespace p5 {

void
ChipParams::validate() const
{
    if (numCores < 1 || numCores > max_cores)
        fatal("ChipParams::numCores %d out of range [1, %d]", numCores,
              max_cores);
    core.validate();
}

Chip::Chip(const ChipParams &params)
{
    params.validate();
    backside_ = std::make_unique<MemBackside>(params.core.mem);
    cores_.reserve(static_cast<std::size_t>(params.numCores));
    for (int c = 0; c < params.numCores; ++c) {
        CoreParams p = params.core;
        p.coreId = c;
        cores_.push_back(std::make_unique<SmtCore>(p, backside_.get()));
    }
    gates_.resize(cores_.size());
}

Chip::Chip(const CoreParams &base) : Chip(ChipParams{2, base}) {}

SmtCore &
Chip::core(int idx)
{
    if (idx < 0 || idx >= numCores())
        panic("Chip::core(%d) out of range", idx);
    return *cores_[static_cast<std::size_t>(idx)];
}

const SmtCore &
Chip::core(int idx) const
{
    if (idx < 0 || idx >= numCores())
        panic("Chip::core(%d) out of range", idx);
    return *cores_[static_cast<std::size_t>(idx)];
}

void
Chip::tick()
{
    for (auto &core : cores_)
        core->tick();
}

void
Chip::run(Cycle cycles)
{
    // A fresh streak armed at entry, like a fresh core's: arming only
    // decides when to probe, so it never changes stats.
    std::uint32_t streak = SmtCore::ff_arm_streak;
    SmtCore::advance(cores_, gates_.data(), streak,
                     saturatingAdd(cycle(), cycles), [] { return false; });
}

Cycle
Chip::cycle() const
{
#ifndef NDEBUG
    for (const auto &core : cores_)
        assert(core->cycle() == cores_[0]->cycle() &&
               "Chip lockstep contract violated: a core was advanced "
               "behind the chip's back");
#endif
    return cores_[0]->cycle();
}

} // namespace p5
