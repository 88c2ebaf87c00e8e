#include "sched/workload.hh"

#include "common/log.hh"
#include "common/parse.hh"
#include "ubench/ubench.hh"

namespace p5 {

int
Workload::add(ProgramSpec spec, int priority)
{
    RunnableThread t;
    t.id = size();
    t.spec = spec;
    t.priority = priority;
    threads_.push_back(t);
    programs_.push_back(spec.build());
    return t.id;
}

Workload
Workload::fromMix(const std::string &mix, double scale)
{
    Workload w;
    for (const std::string &name : splitList(mix)) {
        if (name.empty())
            fatal("workload mix '%s' has an empty benchmark name",
                  mix.c_str());
        w.add(ProgramSpec::ubench(ubenchFromName(name), scale));
    }
    return w;
}

const RunnableThread &
Workload::thread(int id) const
{
    if (id < 0 || id >= size())
        panic("Workload::thread(%d) out of range", id);
    return threads_[static_cast<std::size_t>(id)];
}

const InstrSource &
Workload::program(int id) const
{
    if (id < 0 || id >= size())
        panic("Workload::program(%d) out of range", id);
    return *programs_[static_cast<std::size_t>(id)];
}

std::string
Workload::describe() const
{
    std::string out;
    for (const RunnableThread &t : threads_) {
        if (!out.empty())
            out += '+';
        if (t.spec.kind == ProgramSpec::Kind::Ubench)
            out += ubenchName(static_cast<UbenchId>(t.spec.id));
        else if (t.spec.kind == ProgramSpec::Kind::Trace)
            out += t.spec.traceName;
        else
            out += t.spec.key();
    }
    return out;
}

} // namespace p5
