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
    if (window_capacity > 0) {
        window.reserve(window_capacity);
        // Pre-warm every pooled slot's wakeup-list spill buffer to the
        // fan-out high-water mark (a hot producer in a tight loop feeds
        // every consumer dispatched before it completes — ~30 on the
        // compute-bound micro-benchmarks). Paying all the growth here
        // keeps steady-state dispatch allocation-free (DESIGN §8).
        window.forEachSlot(
            [](InFlight &e) { e.dependents.reserve(dependents_reserve); });
    }
    for (auto &e : renameMap)
        e = RenameEntry{};
    epoch = 0;
    decodeBlockedUntil = 0;
    committed = 0;
    executionsCompleted = 0;
    lastExecutionCycle = 0;
}

void
ThreadState::detach()
{
    stream_.reset();
    window.clear();
    for (auto &e : renameMap)
        e = RenameEntry{};
}

InFlight *
ThreadState::find(SeqNum seq)
{
    if (window.empty())
        return nullptr;
    const SeqNum head = window.front().di.seq;
    if (seq < head)
        return nullptr;
    const std::uint64_t idx = seq - head;
    if (idx >= window.size())
        return nullptr;
    return &window[static_cast<std::size_t>(idx)];
}

InFlight *
ThreadState::find(SeqNum seq, std::uint64_t expected_epoch)
{
    InFlight *e = find(seq);
    if (!e || e->epoch != expected_epoch)
        return nullptr;
    return e;
}

void
ThreadState::rebuildRenameMap()
{
    for (auto &e : renameMap)
        e = RenameEntry{};
    for (const auto &entry : window) {
        if (entry.di.dst != invalid_reg) {
            RenameEntry &re = renameMap[entry.di.dst];
            re.valid = true;
            re.seq = entry.di.seq;
            re.epoch = entry.epoch;
        }
    }
}

} // namespace p5
