/**
 * @file
 * Shared helpers for the tests: tiny programs with known shapes, a
 * fast experiment configuration, and EXPECT_FATAL for error paths.
 */

#ifndef P5SIM_TESTS_TEST_HELPERS_HH
#define P5SIM_TESTS_TEST_HELPERS_HH

#include <regex.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.hh"
#include "common/table.hh"
#include "common/log.hh"
#include "core/smt_core.hh"
#include "program/builder.hh"
#include "program/program.hh"

namespace p5::test {

/**
 * True when @p text contains a match of @p regex, a POSIX extended
 * expression read as a gtest death test reads it ("" matches all).
 */
inline bool
containsRegex(const std::string &text, const char *regex)
{
    regex_t re;
    if (regcomp(&re, *regex ? regex : "()", REG_EXTENDED | REG_NOSUB) != 0) {
        ADD_FAILURE() << "bad regex /" << regex << "/";
        return false;
    }
    const bool found = regexec(&re, text.c_str(), 0, nullptr, 0) == 0;
    regfree(&re);
    return found;
}

/** The message of the p5::Error @p fn throws; "" when it returns. */
template <class Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const Error &e) {
        return e.what();
    }
    return {};
}

/** Success iff @p fn throws a p5::Error whose message matches @p regex. */
template <class Fn>
::testing::AssertionResult
throwsFatal(Fn &&fn, const char *regex)
{
    const std::string message = fatalMessage(fn);
    if (message.empty())
        return ::testing::AssertionFailure()
               << "no p5::Error thrown (expected /" << regex << "/)";
    if (!containsRegex(message, regex))
        return ::testing::AssertionFailure()
               << "error '" << message << "' does not match /" << regex
               << "/";
    return ::testing::AssertionSuccess();
}

/**
 * @p statement fails with a fatal() whose message matches @p regex, in
 * this process (fatal() throws p5::Error). Streams like EXPECT_TRUE.
 */
#define EXPECT_FATAL(statement, regex)                                    \
    EXPECT_TRUE(::p5::test::throwsFatal([&] { statement; }, regex))

/**
 * Arm the standard p5check invariant suite on @p core with violations
 * fatal, so any conservation or slot-conformance breach aborts the test
 * with a descriptive panic. A no-op beyond setFatal() in checked builds
 * (-DP5SIM_CHECK=ON), where every core is born with the suite armed.
 */
inline SmtCore &
withCheckers(SmtCore &core)
{
    check::installStandardCheckers(core);
    core.checks().setFatal(true);
    return core;
}

/** An endless stream of independent 1-cycle integer ops. */
inline SyntheticProgram
independentAlus(std::uint64_t iterations = 1000)
{
    ProgramBuilder b("indep_alu");
    b.beginPhase(iterations);
    for (RegIndex r = 0; r < 8; ++r)
        b.intAlu(r, 20); // all read r20: no chains
    return b.build();
}

/** A serial 1-cycle dependence chain (IPC ~1 in steady state). */
inline SyntheticProgram
serialChain(std::uint64_t iterations = 1000)
{
    ProgramBuilder b("serial_chain");
    b.beginPhase(iterations);
    for (int i = 0; i < 8; ++i)
        b.intAlu(0, 0); // r0 = f(r0): strict chain
    return b.build();
}

/** Pure nops (decode/commit bandwidth only). */
inline SyntheticProgram
nops(std::uint64_t iterations = 1000)
{
    ProgramBuilder b("nops");
    b.beginPhase(iterations);
    for (int i = 0; i < 10; ++i)
        b.nop();
    return b.build();
}

/** Loads that always miss to DRAM (distinct 2 MiB-spaced lines). */
inline SyntheticProgram
dramChase(std::uint64_t iterations = 100)
{
    ProgramBuilder b("dram_chase");
    // 2 MiB spacing lands every access in the same L2/L3 set family:
    // guaranteed misses everywhere with a tiny page set.
    int pat = b.memPattern(0, 2 * 1024 * 1024, 96 * 1024 * 1024);
    b.beginPhase(iterations);
    b.load(11, pat, 11); // self-chained
    b.intAlu(0, 11);
    b.nop();
    b.nop();
    return b.build();
}

/** A program with mispredicting branches (50% random). */
inline SyntheticProgram
randomBranches(std::uint64_t iterations = 500)
{
    ProgramBuilder b("random_branches");
    int dir = b.randomBranch(0.5, 42);
    b.beginPhase(iterations);
    b.intAlu(0, 1);
    b.branch(dir);
    b.intAlu(2, 3);
    b.intAlu(4, 5);
    return b.build();
}

/** A program that sets its own priority via or-nops. */
inline SyntheticProgram
prioNopProgram(int or_reg, std::uint64_t iterations = 10)
{
    ProgramBuilder b("prio_nop");
    b.beginPhase(iterations);
    b.prioNop(or_reg);
    for (int i = 0; i < 4; ++i)
        b.intAlu(0, 1);
    return b.build();
}

/** FNV-1a (64-bit) of @p text: the pin of a rendered table. */
inline std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a of @p tables rendered as the driver prints them (ASCII). */
inline std::uint64_t
tablesDigest(const std::vector<Table> &tables)
{
    std::ostringstream os;
    for (const Table &t : tables)
        t.printAscii(os);
    return fnv1a(os.str());
}

/**
 * Pin a rendered output: a deliberate change re-records @p recorded
 * with the printed value and says so in CHANGES.md.
 */
#define P5_EXPECT_DIGEST(actual, recorded)                                \
    EXPECT_EQ((actual), (recorded))                                        \
        << "rendered output moved; new digest 0x" << std::hex << (actual)

} // namespace p5::test

#endif // P5SIM_TESTS_TEST_HELPERS_HH
