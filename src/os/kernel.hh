/**
 * @file
 * Linux-kernel model for the priority experiments (paper Sec. 4.3).
 *
 * The stock 2.6.23 kernel on POWER5:
 *  - exposes only priorities 2..4 to user code (the or-nop form);
 *  - itself lowers a hardware thread's priority when it spins on a
 *    lock, waits for an smp_call_function(), or runs the idle loop;
 *  - does not track priorities, so it conservatively resets a thread to
 *    MEDIUM (4) on *every* kernel entry: interrupts, exceptions and
 *    system calls.
 *
 * The paper's experimental kernel patch (a) exposes priorities 1..6
 * through a /sys interface, (b) removes the kernel's own priority
 * writes, and (c) leaves 0 and 7 to a hypervisor call. KernelSim models
 * both configurations: construct with patched=false for stock
 * behaviour, patched=true for the paper's environment.
 */

#ifndef P5SIM_OS_KERNEL_HH
#define P5SIM_OS_KERNEL_HH

#include <array>

#include "common/stats.hh"
#include "core/smt_core.hh"

namespace p5 {

/** Reasons a hardware thread enters the kernel. */
enum class KernelEntry
{
    Interrupt,
    Exception,
    Syscall
};

/** Kernel configuration. */
struct KernelParams
{
    /** The paper's patch: expose 1..6, remove kernel priority writes. */
    bool patched = false;

    /** Cycles between timer interrupts (0 disables the timer). */
    Cycle timerPeriod = 1'000'000;

    /** Cycles a kernel entry keeps the thread busy. */
    Cycle entryOverhead = 200;
};

/** Models the kernel's interaction with the priority hardware. */
class KernelSim
{
  public:
    /** @param core must outlive the kernel. */
    KernelSim(SmtCore *core, const KernelParams &params);

    const KernelParams &params() const { return params_; }

    /**
     * Advance the core @p cycles cycles, injecting a timer interrupt on
     * both hardware threads at the start of every timer period. The
     * core runs (and fast-forwards) from one timer edge to the next.
     */
    void run(Cycle cycles);

    /**
     * A kernel entry on @p tid. The stock kernel resets the thread's
     * priority to MEDIUM; the patched kernel leaves priorities alone.
     */
    void enterKernel(ThreadId tid, KernelEntry reason);

    /**
     * The /sys interface of the kernel patch: request priority @p prio
     * for @p tid on behalf of user software. With the patch the request
     * is executed with supervisor rights (1..6); without it only the
     * plain user or-nop levels (2..4) work.
     *
     * @return true when the priority was applied.
     */
    bool sysSetPriority(ThreadId tid, int prio);

    /**
     * Hypervisor call: the full 0..7 range, including shutting a thread
     * off (0) and single-thread mode (7).
     */
    bool hcallSetPriority(ThreadId tid, int prio);

    /**
     * The kernel begins spinning on a lock / waiting for a cross-CPU
     * call on @p tid: its priority drops to the spin level (1, Very
     * low). Restored to MEDIUM by endSpin().
     */
    void beginSpin(ThreadId tid);
    void endSpin(ThreadId tid);

    /** The idle loop runs on @p tid: drop priority (stock kernel). */
    void enterIdle(ThreadId tid);
    void exitIdle(ThreadId tid);

    std::uint64_t priorityResets() const { return resets_.value(); }
    std::uint64_t timerInterrupts() const { return timerIrqs_.value(); }

  private:
    SmtCore *core_;
    KernelParams params_;
    Cycle nextTimer_;
    std::array<bool, num_hw_threads> spinning_{};
    std::array<bool, num_hw_threads> idle_{};

    Counter resets_;
    Counter timerIrqs_;
};

} // namespace p5

#endif // P5SIM_OS_KERNEL_HH
