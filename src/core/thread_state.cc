#include "core/thread_state.hh"

#include "common/log.hh"

namespace p5 {

void
ThreadState::attach(const InstrSource *source,
                    std::size_t window_capacity)
{
    if (!source)
        panic("ThreadState::attach(null source)");
    stream_ = std::make_unique<InstrStream>(source, tid_);
    window.clear();
    window.reserve(window_capacity);
    for (auto &e : renameMap)
        e = RenameEntry{};
    decodeBlockedUntil = 0;
    committed = 0;
    executionsCompleted = 0;
    lastExecutionCycle = 0;
    ++bindings;
}

void
ThreadState::detach()
{
    stream_.reset();
    window.clear();
    for (auto &e : renameMap)
        e = RenameEntry{};
    // The ready queues and the completion heap may still hold handles
    // to the dropped window. A fresh binding restarts at seq 0 in the
    // same slots, so only a new epoch keeps those handles from
    // validating against the next program's instructions.
    ++epoch;
}

void
ThreadState::repairAfterSquash()
{
    for (auto &e : renameMap)
        e = RenameEntry{};
    for (InFlight &entry : window) {
        if (entry.di.dst != invalid_reg) {
            RenameEntry &re = renameMap[entry.di.dst];
            re.valid = true;
            re.seq = entry.di.seq;
            re.epoch = entry.epoch;
        }
        while (entry.wakeHead != no_wake_edge &&
               !window.livePhys(entry.wakeHead >> 1))
            entry.wakeHead = nextWake(entry.wakeHead);
    }
}

void
ThreadState::rebuildFromWindow()
{
    // Slot of the youngest producer of each register seen so far
    // (no_wake_edge: none yet), and the same producer as the rename map
    // names it.
    std::uint32_t writer[num_arch_regs];
    for (auto &w : writer)
        w = no_wake_edge;
    for (auto &re : renameMap)
        re = RenameEntry{};
    for (InFlight &e : window) {
        const std::uint32_t slot = window.physIndexOf(&e);
        e.wakeHead = no_wake_edge;
        if (e.phase == InstrPhase::Dispatched &&
            fuClassOf(e.di.op) != FuClass::None) {
            const RegIndex srcs[] = {e.di.src0, e.di.src1};
            for (int k = 0; k < 2; ++k) {
                const RegIndex src = srcs[k];
                if (src == invalid_reg || writer[src] == no_wake_edge)
                    continue;
                InFlight &producer = window.slotAt(writer[src]);
                if (producer.phase != InstrPhase::Finished)
                    linkWake(producer, slot, k);
            }
        }
        if (e.di.dst != invalid_reg) {
            writer[e.di.dst] = slot;
            renameMap[e.di.dst] = {true, e.di.seq, e.epoch};
        }
    }
}

} // namespace p5
