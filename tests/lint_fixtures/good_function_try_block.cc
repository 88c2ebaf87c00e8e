// p5lint fixture — analysis-only, never compiled.
// GOOD: a cold function written as a function-try-block allocates in
// its try block. Its try block and handler are the body of `load`, so
// the hot root's own `if` must not resolve to a phantom function named
// after the try block's `if` and reach the allocation.

#include <vector>

namespace fixture {

struct Error
{
};

int
load(int argc) try {
    std::vector<int> a;
    if (argc > 1) {
        a.push_back(argc);
    }
    return static_cast<int>(a.size());
} catch (const Error &) {
    return 1;
}

struct Core
{
    P5_HOT_PATH void tick();

    int cycle_ = 0;
};

void
Core::tick()
{
    if (cycle_ > 0) {
        ++cycle_;
    }
}

} // namespace fixture
