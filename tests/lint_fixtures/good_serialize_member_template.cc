// p5lint fixture — analysis-only, never compiled.
// GOOD twin of bad_serialize_member_template.cc: the checkpoint body
// reached through `Component::ckpt(self.member_, io)` iterates a
// std::map, whose order is the key order — stable bytes, no findings.

#include <map>
#include <string>

namespace fixture {

struct Sink
{
    void put(long v);
};

struct WarmStats
{
    std::map<std::string, long> counters_;

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
    for (auto &kv : self.counters_) // key order: deterministic
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
