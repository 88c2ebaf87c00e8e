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
    if (found_)
        return false;
    const PollView now = pollViewOf(core);
    const auto ref = static_cast<std::size_t>(ref_);
    const bool ref_boundary = now.execs[ref] != seen_[ref];
    for (Search *s : {&filtered_, &first_}) {
        if (!s->searching())
            continue;
        for (std::size_t t = 0; t < num_hw_threads; ++t)
            if (now.execs[t] != seen_[t])
                s->log[t].push_back({core.cycle() - s->a.cycle,
                                     now.execs[t], now.last[t]});
    }
    seen_ = now.execs;
    if (!ref_boundary)
        return false;

    const std::size_t proposal = filter(core);
    const bool filter_idle = !filtered_.searching();
    bTaken_ = false;
    for (Search *s : {&filtered_, &first_}) {
        if (s->searching() && advance(*s, core)) {
            found_ = s;
            return true;
        }
    }
    if (boundaries_ == 1)
        startAt(first_, refPeriod_, core);
    // The reference stream's own phase recurs only every refPeriod_
    // boundaries, so the period is a multiple of that.
    if (proposal && filter_idle) {
        filtered_.rolls = 0;
        startAt(filtered_, std::lcm(proposal, refPeriod_), core);
    }
    return false;
}

bool
PeriodDetector::advance(Search &s, const SmtCore &core)
{
    if (++s.since % s.step != 0)
        return false;

    // Every step, compare the phases with A's; where they match, the
    // whole state.
    const PhaseKey key = phaseOf(core);
    if (key != s.keys.front()) {
        if (std::find(s.keys.begin(), s.keys.end(), key) != s.keys.end()) {
            // The phases cycle without returning to A's: A came before
            // the cycle set in. Start again from here.
            if (++s.rolls > max_rolls)
                fail(s);
            else
                startAt(s, s.step, core);
        } else if (s.keys.size() > s.maxSteps) {
            fail(s);
        } else {
            s.keys.push_back(key);
        }
        return false;
    }
    if (s.a.sameState(here(core)))
        return true;
    // The phases recurred but the rest of the state did not, as while
    // the caches still warm: compare against this boundary next.
    if (++s.rolls > max_rolls)
        fail(s);
    else
        startAt(s, s.step, core);
    return false;
}

const StateSnapshot &
PeriodDetector::here(const SmtCore &core)
{
    if (!bTaken_) {
        core.snapshotState(b_);
        bView_ = pollViewOf(core);
        bTaken_ = true;
    }
    return b_;
}

void
PeriodDetector::startAt(Search &s, std::uint64_t step, const SmtCore &core)
{
    s.a = here(core);
    s.view = bView_;
    s.step = step;
    s.since = 0;
    s.keys.assign(1, phaseOf(core));
    for (auto &events : s.log)
        events.clear();
}

void
PeriodDetector::fail(Search &s)
{
    s.keys.clear();
    s.a = StateSnapshot{};
    if (&s == &filtered_) {
        // The statistics repeated but the state did not (yet): wait
        // longer before the filter's next try.
        run_.fill(0);
        ++failures_;
        cooldownUntil_ =
            boundaries_ + (s.step << std::min(failures_, 10u));
    }
    if (!filtered_.searching() && !first_.searching()) {
        b_ = StateSnapshot{};
        bTaken_ = false;
    }
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
        const std::vector<Event> &events = found_->log[t];
        v.execs[t] = bView_.execs[t] + j * delta;
        v.last[t] = bView_.last[t] + (events.empty() ? 0 : j * period);
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
