// p5lint fixture — analysis-only, never compiled.
// GOOD: twin of bad_hot_alloc_via_template.cc whose per-core step only
// counts, so the hot root reached through the static member template
// and its stop lambda allocates nothing.  p5lint must report no
// finding.

#include <array>

namespace fixture {

struct Core
{
    P5_HOT_PATH void run(int cycles);

    template <class Cores, class Stop>
    static bool advance(const Cores &cores, int end, Stop &&stop);

    void step();

    int cycle_ = 0;
    int steps_ = 0;
};

template <class Cores, class Stop>
bool
Core::advance(const Cores &cores, int end, Stop &&stop)
{
    Core &lead = *cores[0];
    while (lead.cycle_ < end) {
        if (stop())
            return true;
        for (std::size_t c = 0; c < cores.size(); ++c) {
            Core &core = *cores[c];
            core.step();
        }
    }
    return stop();
}

void
Core::step()
{
    ++steps_;
    ++cycle_;
}

void
Core::run(int cycles)
{
    const std::array<Core *, 1> self{this};
    advance(self, cycle_ + cycles, [] { return false; });
}

} // namespace fixture
