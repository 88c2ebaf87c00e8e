// p5lint fixture — analysis-only, never compiled.
// BAD: a P5_SERIALIZE_ROOT reaches a component's checkpoint body the
// way the simulator's bodies call each other — a static member
// template, `Component::ckpt(self.member_, io)` — and that body
// iterates an unordered_map under a statement-level
// P5_ALLOW(determinism).  The exemption is void inside a serialize
// root's reach, so p5lint must follow the qualified call, resolve
// `self` to the owning class, and flag this with determinism and
// nothing else.

#include <string>
#include <unordered_map>

namespace fixture {

struct Sink
{
    void put(long v);
};

struct WarmStats
{
    P5_ALLOW(determinism) // lookup-only in the report path
    std::unordered_map<std::string, long> counters_;

    template <class Self, class Io> static void ckpt(Self &self, Io &io);
};

struct Core
{
    WarmStats stats_;

    template <class Self, class Io> static void ckpt(Self &self, Io &io);

    P5_SERIALIZE_ROOT void saveState(Sink &sink) const;
};

template <class Self, class Io>
void
WarmStats::ckpt(Self &self, Io &io)
{
    P5_ALLOW(determinism) for (auto &kv : self.counters_) // hash order
        io.put(kv.second);
}

template <class Self, class Io>
void
Core::ckpt(Self &self, Io &io)
{
    WarmStats::ckpt(self.stats_, io);
}

void
Core::saveState(Sink &sink) const
{
    ckpt(*this, sink);
}

} // namespace fixture
