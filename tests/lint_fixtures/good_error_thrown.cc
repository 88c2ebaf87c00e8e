// p5lint fixture — analysis-only, never compiled.
// GOOD twin of bad_process_exit.cc: the error is thrown to the caller,
// and the only abort() called is a member of an unrelated class.

#include <cstdio>
#include <stdexcept>
#include <string>

namespace fixture {

struct Transfer
{
    bool open = true;

    void abort();
};

void
Transfer::abort()
{
    open = false;
}

inline int
parseWidth(const char *text, Transfer &transfer)
{
    int width = 0;
    if (std::sscanf(text, "%d", &width) != 1) {
        transfer.abort(); // a member call, not the libc one
        throw std::runtime_error(std::string("bad width '") + text + "'");
    }
    return width;
}

} // namespace fixture
