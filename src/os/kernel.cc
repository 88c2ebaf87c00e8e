#include "os/kernel.hh"

#include <algorithm>

#include "common/log.hh"

namespace p5 {

namespace {

/** Priority the stock kernel uses for spinning/idle contexts. */
constexpr int spin_priority = 1;

} // namespace

KernelSim::KernelSim(SmtCore *core, const KernelParams &params)
    : core_(core), params_(params),
      nextTimer_(params.timerPeriod ? params.timerPeriod : never_cycle)
{
    if (!core_)
        panic("KernelSim constructed with null core");
}

void
KernelSim::run(Cycle cycles)
{
    const Cycle end = saturatingAdd(core_->cycle(), cycles);
    while (core_->cycle() < end) {
        if (core_->cycle() >= nextTimer_) {
            ++timerIrqs_;
            for (ThreadId t = 0; t < num_hw_threads; ++t)
                if (core_->threadAttached(t))
                    enterKernel(t, KernelEntry::Interrupt);
            nextTimer_ += params_.timerPeriod;
        }
        // Run to the next timer edge; a timer still behind the core
        // (it was advanced without the kernel) fires once per cycle.
        const Cycle edge = std::max(nextTimer_, core_->cycle() + 1);
        core_->run(std::min(end, edge) - core_->cycle());
    }
}

void
KernelSim::enterKernel(ThreadId tid, KernelEntry reason)
{
    (void)reason;
    if (params_.patched)
        return; // the patch removes every kernel priority write
    if (spinning_[static_cast<size_t>(tid)] ||
        idle_[static_cast<size_t>(tid)])
        return; // those paths manage the priority themselves
    // The stock kernel does not track priorities: conservatively reset
    // to MEDIUM on every kernel service routine.
    if (core_->priorityOf(tid) != default_priority) {
        core_->requestPriority(tid, default_priority,
                               PrivilegeLevel::Supervisor);
        ++resets_;
    }
}

bool
KernelSim::sysSetPriority(ThreadId tid, int prio)
{
    if (!isValidPriority(prio))
        return false;
    if (params_.patched) {
        // The patch executes the request in kernel mode: 1..6.
        return core_->requestPriority(tid, prio,
                                      PrivilegeLevel::Supervisor);
    }
    // Without the patch, user software can only use the or-nop levels.
    return core_->requestPriority(tid, prio, PrivilegeLevel::User);
}

bool
KernelSim::hcallSetPriority(ThreadId tid, int prio)
{
    return core_->requestPriority(tid, prio, PrivilegeLevel::Hypervisor);
}

void
KernelSim::beginSpin(ThreadId tid)
{
    spinning_[static_cast<size_t>(tid)] = true;
    if (!params_.patched)
        core_->requestPriority(tid, spin_priority,
                               PrivilegeLevel::Supervisor);
}

void
KernelSim::endSpin(ThreadId tid)
{
    spinning_[static_cast<size_t>(tid)] = false;
    if (!params_.patched)
        core_->requestPriority(tid, default_priority,
                               PrivilegeLevel::Supervisor);
}

void
KernelSim::enterIdle(ThreadId tid)
{
    idle_[static_cast<size_t>(tid)] = true;
    if (!params_.patched)
        core_->requestPriority(tid, spin_priority,
                               PrivilegeLevel::Supervisor);
}

void
KernelSim::exitIdle(ThreadId tid)
{
    idle_[static_cast<size_t>(tid)] = false;
    if (!params_.patched)
        core_->requestPriority(tid, default_priority,
                               PrivilegeLevel::Supervisor);
}

} // namespace p5
