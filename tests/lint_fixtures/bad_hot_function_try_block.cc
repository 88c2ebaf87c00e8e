// p5lint fixture — analysis-only, never compiled.
// BAD: a P5_HOT_PATH root written as a function-try-block allocates in
// its try block. p5lint must flag this with exactly one
// hot_path_no_alloc finding and nothing else.

#include <vector>

namespace fixture {

struct Error
{
};

struct Core
{
    P5_HOT_PATH void tick();

    std::vector<int> events_;
};

void
Core::tick() try {
    events_.push_back(1); // allocates on the hot path
} catch (const Error &) {
    events_.clear();
}

} // namespace fixture
