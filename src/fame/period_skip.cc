#include "fame/period_skip.hh"

#include <algorithm>

namespace p5 {

PollView
pollViewOf(const SmtCore &core)
{
    PollView v;
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        v.execs[ti] = core.executionsOf(t);
        v.last[ti] = core.lastExecutionCycleOf(t);
    }
    return v;
}

PeriodDetector::PeriodDetector(const SmtCore &core, bool enable)
    : active_(enable && core.periodSkipAllowed())
{
    int lowest = max_priority + 1;
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        seen_[static_cast<std::size_t>(t)] = core.executionsOf(t);
        if (!core.threadAttached(t))
            continue;
        // A stream phase that recurs this rarely (ldint_mem's 64 MiB
        // sweep) never recurs within a measurement: do not even look.
        const InstrStream &stream = core.thread(t).stream();
        if (stream.periodInstrs() / stream.instrsPerExecution() >
            max_source_period)
            active_ = false;
        // The reference thread retires executions the least often of
        // the two, as a rule: the lower priority, thread 1 on a tie.
        if (core.priorityOf(t) <= lowest) {
            lowest = core.priorityOf(t);
            ref_ = t;
        }
    }
    if (!active_)
        return;
    refPeriod_ = core.thread(ref_).stream().periodInstrs() /
                 core.thread(ref_).stream().instrsPerExecution();
    anchors_.reserve(max_anchors);
}

bool
PeriodDetector::onBoundary(const SmtCore &core)
{
    if (found_)
        return false;
    const PollView now = pollViewOf(core);
    const auto ref = static_cast<std::size_t>(ref_);
    const bool ref_boundary = now.execs[ref] != seen_[ref];
    if (!anchors_.empty())
        for (std::size_t t = 0; t < num_hw_threads; ++t)
            if (now.execs[t] != seen_[t])
                log_[t].push_back({core.cycle(), now.execs[t], now.last[t]});
    seen_ = now.execs;
    // The reference stream's own phase recurs only every refPeriod_
    // reference boundaries, so a period is a whole number of steps.
    if (!ref_boundary ||
        (!anchors_.empty() && ++refBoundaries_ % refPeriod_ != 0))
        return false;

    const PhaseKey key = phaseOf(core);
    bool taken = false;
    for (auto it = anchors_.rbegin(); it != anchors_.rend(); ++it) {
        if (it->key != key)
            continue;
        if (!taken) {
            core.snapshotState(b_);
            taken = true;
        }
        if (it->state.sameState(b_)) {
            found_ = &*it;
            bView_ = now;
            return true;
        }
    }

    // Anchor at step 0 and at every power-of-two step.
    const std::uint64_t step = refBoundaries_ / refPeriod_;
    if (step & (step - 1))
        return false;
    if (!taken)
        core.snapshotState(b_);
    if (anchors_.size() < max_anchors)
        anchors_.emplace_back();
    else
        std::rotate(anchors_.begin() + 1, anchors_.begin() + 2,
                    anchors_.end());
    Anchor &a = anchors_.back();
    std::swap(a.state, b_);
    a.key = key;
    a.view = now;
    for (std::size_t t = 0; t < num_hw_threads; ++t)
        a.logFrom[t] = log_[t].size();
    return false;
}

PeriodDetector::PhaseKey
PeriodDetector::phaseOf(const SmtCore &core)
{
    PhaseKey key{};
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        if (!core.threadAttached(t))
            continue;
        const InstrStream &stream = core.thread(t).stream();
        key[static_cast<std::size_t>(t)] =
            stream.nextSeq() % stream.periodInstrs();
    }
    key[num_hw_threads] =
        core.cycle() % core.arbiter().allocator().grantPhasePeriod();
    return key;
}

PollView
PeriodDetector::viewAt(Cycle c) const
{
    const Cycle period = periodCycles();
    const Cycle o = c - b().cycle;
    if (o == 0)
        return bView_;
    // Cycle c lies in period j after B, at offset r in (0, P] into it.
    const std::uint64_t j = (o - 1) / period;
    const Cycle r = o - j * period;
    PollView v;
    for (std::size_t t = 0; t < num_hw_threads; ++t) {
        const std::uint64_t delta = bView_.execs[t] - found_->view.execs[t];
        const std::vector<Event> &log = log_[t];
        const auto first =
            log.begin() + static_cast<std::ptrdiff_t>(found_->logFrom[t]);
        v.execs[t] = bView_.execs[t] + j * delta;
        v.last[t] = bView_.last[t] + (first == log.end() ? 0 : j * period);
        const auto it = std::upper_bound(
            first, log.end(), a().cycle + r,
            [](Cycle x, const Event &e) { return x < e.cycle; });
        if (it != first) {
            const Event &e = *std::prev(it);
            v.execs[t] = e.execs + (j + 1) * delta;
            v.last[t] = e.last + (j + 1) * period;
        }
    }
    return v;
}

} // namespace p5
