// p5lint fixture — analysis-only, never compiled.
// BAD: a P5_HOT_PATH root reaches an allocating container method only
// through a static member template that takes a range of cores and a
// stop lambda (the shape of SmtCore::advance).  p5lint must see
// through the template and flag this with hot_path_no_alloc only.

#include <array>
#include <vector>

namespace fixture {

struct Core
{
    P5_HOT_PATH void run(int cycles);

    template <class Cores, class Stop>
    static bool advance(const Cores &cores, int end, Stop &&stop);

    void step();

    int cycle_ = 0;
    std::vector<int> trace_;
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
    trace_.push_back(cycle_); // allocates: reachable from the hot root
    ++cycle_;
}

void
Core::run(int cycles)
{
    const std::array<Core *, 1> self{this};
    advance(self, cycle_ + cycles, [] { return false; });
}

} // namespace fixture
