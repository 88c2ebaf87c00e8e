#include "check/check.hh"

#include <utility>

#include "check/checkers.hh"
#include "common/log.hh"
#include "core/smt_core.hh"

namespace p5::check {

std::string
CheckFailure::describe() const
{
    std::string s = "cycle " + std::to_string(cycle) + " [" + checker +
                    "] " + invariant;
    if (tid >= 0)
        s += " (thread " + std::to_string(tid) + ")";
    s += ": expected " + expected + ", actual " + actual;
    return s;
}

void
InvariantChecker::fail(Cycle cycle, ThreadId tid, std::string invariant,
                       std::string expected, std::string actual)
{
    if (!registry_)
        panic("p5check: checker '%s' fired before registration", name());
    CheckFailure f;
    f.cycle = cycle;
    f.tid = tid;
    f.checker = name();
    f.invariant = std::move(invariant);
    f.expected = std::move(expected);
    f.actual = std::move(actual);
    registry_->report(std::move(f));
}

void
CheckRegistry::add(std::unique_ptr<InvariantChecker> checker)
{
    if (!checker)
        panic("CheckRegistry::add(null checker)");
    checker->registry_ = this;
    checkers_.push_back(std::move(checker));
}

void
CheckRegistry::onCycle(const SmtCore &core, Cycle cycle)
{
    ++cyclesChecked_;
    for (auto &c : checkers_)
        c->onCycle(core, cycle);
}

void
CheckRegistry::onSkip(const SmtCore &core, Cycle from, Cycle to)
{
    cyclesSkipped_ += to - from;
    for (auto &c : checkers_)
        c->onSkip(core, from, to);
}

bool
CheckRegistry::has(const std::string &name) const
{
    for (const auto &c : checkers_)
        if (name == c->name())
            return true;
    return false;
}

void
CheckRegistry::clearFailures()
{
    failures_.clear();
    failureCount_ = 0;
}

void
CheckRegistry::reprime()
{
    for (const auto &c : checkers_)
        c->unprime();
}

void
CheckRegistry::report(CheckFailure f)
{
    if (fatal_)
        panic("p5check violation: %s", f.describe().c_str());
    ++failureCount_;
    checkfail("%s", f.describe().c_str());
    if (failures_.size() < max_stored_failures)
        failures_.push_back(std::move(f));
}

void
installStandardCheckers(SmtCore &core)
{
    CheckRegistry &reg = core.checks();
    if (!reg.has("decode-slot"))
        reg.add(std::make_unique<DecodeSlotChecker>());
    if (!reg.has("gct"))
        reg.add(std::make_unique<GctChecker>());
    if (!reg.has("flow"))
        reg.add(std::make_unique<FlowChecker>());
    if (!reg.has("mem"))
        reg.add(std::make_unique<MemChecker>());
    if (!reg.has("ipc"))
        reg.add(std::make_unique<IpcChecker>());
}

} // namespace p5::check
