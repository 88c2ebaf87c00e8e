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
    const Cycle end = saturatingAdd(cycle(), cycles);
    const bool ff = cores_[0]->params().fastForward;

    // Chip-level adaptive arming, mirroring SmtCore::run(): probe the
    // coordinated skip only after a tick in which no core made
    // progress. Arming is a pure wall-clock optimization — an
    // un-probed idle cycle is simply ticked — so it never changes
    // stats. Armed at entry like a fresh core.
    std::uint32_t idle_streak = SmtCore::ff_arm_streak;

    while (cycle() < end) {
        if (ff && idle_streak >= SmtCore::ff_arm_streak) {
            // A joint skip is valid only when every core is idle this
            // cycle: the probes are side-effect-free, and jumping all
            // cores to the chip-wide minimum target keeps each core
            // inside its own verified-idle gap (any prefix of an idle
            // gap is idle) while no core can touch the shared
            // backside in between.
            Cycle target = end;
            bool all_idle = true;
            for (std::size_t c = 0; c < cores_.size(); ++c) {
                const Cycle t = cores_[c]->idleTarget(end, &gates_[c]);
                if (t <= cores_[c]->cycle()) {
                    all_idle = false;
                    break;
                }
                if (t < target)
                    target = t;
            }
            if (all_idle) {
                for (std::size_t c = 0; c < cores_.size(); ++c)
                    cores_[c]->skipIdleTo(target, gates_[c]);
                continue;
            }
        }
        bool progress = false;
        for (auto &core : cores_) {
            core->tick();
            progress = progress || core->tickMadeProgress();
        }
        idle_streak = progress ? 0 : idle_streak + 1;
    }
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
