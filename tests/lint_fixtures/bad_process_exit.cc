// p5lint fixture — analysis-only, never compiled.
// BAD: library code ending the process.  An error must reach the caller
// (fatal() throws p5::Error, and driverMain alone turns it into an exit
// code), so one bad input cannot take down a whole job batch or a
// serving process with it.  p5lint must flag this with single_exit and
// nothing else.

#include <cstdio>
#include <cstdlib>

namespace fixture {

inline int
parseWidth(const char *text)
{
    int width = 0;
    if (std::sscanf(text, "%d", &width) != 1) {
        std::fprintf(stderr, "fatal: bad width '%s'\n", text);
        std::exit(1); // ends the process from library code
    }
    return width;
}

} // namespace fixture
