#include "fame/period_skip.hh"

#include <algorithm>
#include <numeric>

#include "common/rng.hh"

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
    counters_ = core.stats().counters();
    prevCounters_.resize(counters_.size());
    for (std::size_t i = 0; i < counters_.size(); ++i)
        prevCounters_[i] = counters_[i]->value();
    prevCycle_ = core.cycle();
}

std::size_t
PeriodDetector::filter(const SmtCore &core)
{
    std::uint64_t d = hashCombine(0, core.cycle() - prevCycle_);
    prevCycle_ = core.cycle();
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        const std::uint64_t v = counters_[i]->value();
        d = hashCombine(d, v - prevCounters_[i]);
        prevCounters_[i] = v;
    }
    const std::uint64_t n = boundaries_++;
    digests_[n % digests_.size()] = d;

    std::size_t proposal = 0;
    for (std::size_t p = 1; p <= max_period && p <= n; ++p) {
        const bool match = digests_[(n - p) % digests_.size()] == d;
        run_[p] = match ? run_[p] + 1 : 0;
        if (!proposal && run_[p] >= std::min<std::size_t>(p, min_run))
            proposal = p;
    }
    return n >= cooldownUntil_ ? proposal : 0;
}

bool
PeriodDetector::onBoundary(const SmtCore &core)
{
    const PollView now = pollViewOf(core);
    const auto ref = static_cast<std::size_t>(ref_);
    const bool ref_boundary = now.execs[ref] != seen_[ref];
    if (phase_ == Phase::Confirm) {
        for (std::size_t t = 0; t < num_hw_threads; ++t)
            if (now.execs[t] != seen_[t])
                log_[t].push_back({core.cycle() - a().cycle, now.execs[t],
                                   now.last[t]});
    }
    seen_ = now.execs;
    if (!ref_boundary || phase_ == Phase::Found)
        return false;

    const std::size_t proposal = filter(core);
    if (phase_ == Phase::Filter) {
        if (!proposal)
            return false;
        // The reference stream's own phase recurs only every
        // refPeriod_ boundaries, so the period is a multiple of that.
        step_ = std::lcm(proposal, refPeriod_);
        rolls_ = 0;
        startAt(core, now);
        return false;
    }
    if (++since_ % step_ != 0)
        return false;

    // Confirm: every step, compare the phases with A's; where they
    // match, the whole state.
    const PhaseKey key = phaseOf(core);
    if (key != keys_.front()) {
        if (std::find(keys_.begin(), keys_.end(), key) != keys_.end()) {
            // The phases cycle without returning to A's: A came before
            // the cycle set in. Start again from here.
            if (++rolls_ > max_rolls)
                fail();
            else
                startAt(core, now);
        } else if (keys_.size() > max_multiples) {
            fail();
        } else {
            keys_.push_back(key);
        }
        return false;
    }
    core.snapshotState(snaps_[1]);
    views_[1] = now;
    if (snaps_[0].sameState(snaps_[1])) {
        phase_ = Phase::Found;
        return true;
    }
    // The phases recurred but the rest of the state did not, as while
    // the caches still warm: compare against this boundary next.
    if (++rolls_ > max_rolls) {
        fail();
        return false;
    }
    std::swap(snaps_[0], snaps_[1]);
    views_[0] = now;
    since_ = 0;
    keys_.assign(1, key);
    for (auto &events : log_)
        events.clear();
    return false;
}

void
PeriodDetector::startAt(const SmtCore &core, const PollView &now)
{
    core.snapshotState(snaps_[0]);
    views_[0] = now;
    since_ = 0;
    keys_.assign(1, phaseOf(core));
    for (auto &events : log_)
        events.clear();
    phase_ = Phase::Confirm;
}

void
PeriodDetector::fail()
{
    // The statistics repeated but the state did not (yet): wait longer
    // before each next try, and free the snapshots meanwhile.
    phase_ = Phase::Filter;
    run_.fill(0);
    ++failures_;
    cooldownUntil_ = boundaries_ + (step_ << std::min(failures_, 10u));
    keys_.clear();
    for (StateSnapshot &s : snaps_)
        s = StateSnapshot{};
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
        return views_[1];
    // Cycle c lies in period j after B, at offset r in (0, P] into it.
    const std::uint64_t j = (o - 1) / period;
    const Cycle r = o - j * period;
    PollView v;
    for (std::size_t t = 0; t < num_hw_threads; ++t) {
        const std::uint64_t delta = views_[1].execs[t] - views_[0].execs[t];
        const std::vector<Event> &events = log_[t];
        v.execs[t] = views_[1].execs[t] + j * delta;
        v.last[t] = views_[1].last[t] + (events.empty() ? 0 : j * period);
        const auto it = std::upper_bound(
            events.begin(), events.end(), r,
            [](Cycle x, const Event &e) { return x < e.offset; });
        if (it != events.begin()) {
            const Event &e = *std::prev(it);
            v.execs[t] = e.execs + (j + 1) * delta;
            v.last[t] = e.last + (j + 1) * period;
        }
    }
    return v;
}

} // namespace p5
