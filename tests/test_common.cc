/**
 * @file
 * Unit tests for the common module: logging (and the thread safety of
 * its globals), RNG, statistics, table rendering, CLI parsing.
 */

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

// --- log ---------------------------------------------------------------

TEST(Log, LevelRoundTrip)
{
    LogLevel old = setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(old);
    EXPECT_EQ(logLevel(), old);
}

TEST(Log, WarnCountsEvenWhenSuppressed)
{
    LogLevel old = setLogLevel(LogLevel::Silent);
    std::uint64_t before = warnCount();
    warn("suppressed warning %d", 42);
    EXPECT_EQ(warnCount(), before + 1);
    setLogLevel(old);
}

TEST(Log, WarnCountAndLevelAreThreadSafe)
{
    // Concurrent simulations warn() and read the log level from many
    // threads; hammer both and check no update is lost. (Run silent so
    // the test log stays readable.)
    const LogLevel prev = setLogLevel(LogLevel::Silent);
    const std::uint64_t before = warnCount();

    constexpr int threads = 8;
    constexpr int perThread = 250;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([] {
            for (int i = 0; i < perThread; ++i) {
                warn("concurrent warn %d", i);
                (void)logLevel();
            }
        });
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(warnCount() - before,
              static_cast<std::uint64_t>(threads) * perThread);
    setLogLevel(prev);
}

// --- rng ---------------------------------------------------------------

TEST(Rng, HashMixIsDeterministic)
{
    EXPECT_EQ(hashMix(12345), hashMix(12345));
    EXPECT_NE(hashMix(12345), hashMix(12346));
}

TEST(Rng, HashCombineOrderSensitive)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(7), b(8);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowStaysBelow)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(r.below(17), 17u);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(5);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        if (r.chance(0.3))
            ++hits;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

// --- stats -------------------------------------------------------------

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, GroupCounterAndDerived)
{
    StatGroup g("test");
    Counter c;
    c += 3;
    g.registerCounter("events", &c);
    static double dummy_ctx = 2.5;
    g.registerDerived(
        "derived", [](const void *ctx) { return *static_cast<const double *>(ctx); },
        &dummy_ctx);
    EXPECT_TRUE(g.has("events"));
    EXPECT_FALSE(g.has("missing"));
    EXPECT_DOUBLE_EQ(g.value("events"), 3.0);
    EXPECT_DOUBLE_EQ(g.value("derived"), 2.5);
    EXPECT_EQ(g.names().size(), 2u);
}

TEST(Stats, GroupDumpFormat)
{
    StatGroup g("grp");
    Counter c;
    ++c;
    g.registerCounter("x", &c);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "grp.x 1\n");
}

TEST(StatsDeath, UnknownStatIsFatal)
{
    StatGroup g("test");
    EXPECT_FATAL(g.value("nope"), "unknown stat");
}

// --- table -------------------------------------------------------------

TEST(Table, AsciiLayout)
{
    Table t("title");
    t.setColumns({"a", "bb"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printAscii(os);
    std::string out = os.str();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("| a "), std::string::npos);
    EXPECT_NE(out.find("| 1 "), std::string::npos);
}

TEST(Table, CsvEscaping)
{
    Table t;
    t.setColumns({"x", "y"});
    t.addRow({"a,b", "he said \"hi\""});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "x,y\n\"a,b\",\"he said \"\"hi\"\"\"\n");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(Table::fmtFactor(2.0, 1), "2.0x");
    EXPECT_EQ(Table::fmtPercent(0.237), "23.7%");
}

TEST(Table, RowAccess)
{
    Table t;
    t.setColumns({"c"});
    t.addRow({"v"});
    EXPECT_EQ(t.numRows(), 1u);
    EXPECT_EQ(t.numColumns(), 1u);
    EXPECT_EQ(t.row(0)[0], "v");
}

// --- cli ---------------------------------------------------------------

TEST(Cli, DefaultsAndOverrides)
{
    Cli cli;
    cli.declare("num", "5", "a number");
    cli.declare("name", "foo", "a string");
    cli.declare("flag", "false", "a bool");
    const char *argv[] = {"prog", "--num=7", "--flag"};
    cli.parse(3, argv);
    EXPECT_EQ(cli.integer("num"), 7);
    EXPECT_EQ(cli.str("name"), "foo");
    EXPECT_TRUE(cli.boolean("flag"));
    EXPECT_TRUE(cli.isSet("num"));
    EXPECT_FALSE(cli.isSet("name"));
}

TEST(Cli, SpaceSeparatedValue)
{
    Cli cli;
    cli.declare("x", "0", "");
    const char *argv[] = {"prog", "--x", "42"};
    cli.parse(3, argv);
    EXPECT_EQ(cli.integer("x"), 42);
}

TEST(Cli, RealParsing)
{
    Cli cli;
    cli.declare("r", "1.5", "");
    const char *argv[] = {"prog", "--r=2.25"};
    cli.parse(2, argv);
    EXPECT_DOUBLE_EQ(cli.real("r"), 2.25);
}

TEST(CliDeath, UnknownFlagIsFatal)
{
    Cli cli;
    cli.declare("known", "0", "");
    const char *argv[] = {"prog", "--unknown=1"};
    EXPECT_FATAL(cli.parse(2, argv), "unknown flag");
}

TEST(CliDeath, BadIntegerIsFatal)
{
    Cli cli;
    cli.declare("n", "0", "");
    const char *argv[] = {"prog", "--n=abc"};
    cli.parse(2, argv);
    EXPECT_FATAL(cli.integer("n"), "expects an integer");
}

TEST(CliDeath, IntegerRejectsTrailingGarbageRangeAndEmpty)
{
    // "8x" silently truncating to 8 is exactly the bug class the
    // shared parse helpers exist to kill.
    const auto expectFatalInteger = [](const char *text) {
        Cli cli;
        cli.declare("n", "0", "");
        const std::string arg = std::string("--n=") + text;
        const char *argv[] = {"prog", arg.c_str()};
        cli.parse(2, argv);
        EXPECT_FATAL(cli.integer("n"), "expects an integer")
            << text;
    };
    expectFatalInteger("8x");
    expectFatalInteger("1 2");
    expectFatalInteger("");
    expectFatalInteger("   ");
    expectFatalInteger("99999999999999999999999"); // ERANGE
    expectFatalInteger("0x");                      // truncated hex
}

TEST(CliDeath, RealRejectsTrailingGarbageAndOverflow)
{
    const auto expectFatalReal = [](const char *text) {
        Cli cli;
        cli.declare("r", "0.0", "");
        const std::string arg = std::string("--r=") + text;
        const char *argv[] = {"prog", arg.c_str()};
        cli.parse(2, argv);
        EXPECT_FATAL(cli.real("r"), "expects a number")
            << text;
    };
    expectFatalReal("1.5x");
    expectFatalReal("");
    expectFatalReal("1e999999"); // ERANGE overflow
}

TEST(CliDeath, ABareValuedFlagNeedsAValue)
{
    // "--json" at the end of the line, or before another flag, used to
    // read as the value "true" (and write a file named "true").
    const auto parsed = [](std::vector<const char *> args) {
        auto cli = std::make_unique<Cli>();
        cli->declare("json", "", "");
        cli->declare("n", "3", "");
        cli->declare("r", "1.0", "");
        cli->declare("fast", "false", "");
        cli->declareMulti("set", "");
        args.insert(args.begin(), "prog");
        cli->parse(static_cast<int>(args.size()), args.data());
        return cli;
    };
    EXPECT_FATAL(parsed({"--json"})->str("json"),
                 "flag '--json' needs a value");
    EXPECT_FATAL(parsed({"--json", "--fast"})->str("json"),
                 "flag '--json' needs a value");
    EXPECT_FATAL(parsed({"--n"})->integer("n"), "flag '--n' needs a value");
    EXPECT_FATAL(parsed({"--r", "--fast"})->real("r"),
                 "flag '--r' needs a value");
    EXPECT_FATAL(parsed({"--set=a=1", "--set"})->list("set"),
                 "flag '--set' needs a value");

    // A bare boolean is still true, and an explicit value (even the
    // text "true") is a value.
    EXPECT_TRUE(parsed({"--fast", "--json=out.json"})->boolean("fast"));
    EXPECT_EQ(parsed({"--json", "true"})->str("json"), "true");
    EXPECT_EQ(parsed({"--json", "--json=a.json"})->str("json"), "a.json");
    EXPECT_EQ(parsed({"--fast"})->str("json"), "");
}

TEST(Cli, ValueSplitsAtTheFirstEquals)
{
    Cli cli;
    cli.declare("a", "", "");
    cli.declareMulti("set", "");
    const char *argv[] = {"prog", "--a=b=c", "--set=x=1", "--set", "y=2"};
    cli.parse(5, argv);
    EXPECT_EQ(cli.str("a"), "b=c");
    EXPECT_EQ(cli.list("set"), (std::vector<std::string>{"x=1", "y=2"}));
}

TEST(Cli, EmptyValueIsAValue)
{
    // "--name=" sets the empty string: it is not a bare flag, so it
    // neither needs a value nor takes the next token.
    Cli cli;
    cli.declare("name", "default", "");
    cli.declare("fast", "false", "");
    const char *argv[] = {"prog", "--name=", "--fast"};
    cli.parse(3, argv);
    EXPECT_TRUE(cli.isSet("name"));
    EXPECT_EQ(cli.str("name"), "");
    EXPECT_TRUE(cli.boolean("fast"));
}

TEST(CliDeath, BareDoubleDashIsAnUnknownFlag)
{
    Cli cli;
    cli.declare("known", "0", "");
    const char *argv[] = {"prog", "--", "value"};
    EXPECT_FATAL(cli.parse(3, argv), "unknown flag '--' ");
}

TEST(Parse, StatusCoversTheFailureTaxonomy)
{
    std::int64_t i = 0;
    EXPECT_EQ(parseInt64("42", i), ParseStatus::Ok);
    EXPECT_EQ(i, 42);
    EXPECT_EQ(parseInt64("-7", i), ParseStatus::Ok);
    EXPECT_EQ(i, -7);
    EXPECT_EQ(parseInt64("0x10", i), ParseStatus::Ok); // base 0: hex
    EXPECT_EQ(i, 16);
    EXPECT_EQ(parseInt64("", i), ParseStatus::Empty);
    EXPECT_EQ(parseInt64(" \t ", i), ParseStatus::Empty);
    EXPECT_EQ(parseInt64("8x", i), ParseStatus::Invalid);
    EXPECT_EQ(parseInt64("x8", i), ParseStatus::Invalid);
    EXPECT_EQ(parseInt64("99999999999999999999999", i),
              ParseStatus::OutOfRange);

    std::uint64_t u = 0;
    EXPECT_EQ(parseUint64("18446744073709551615", u), ParseStatus::Ok);
    EXPECT_EQ(u, 18446744073709551615ULL);
    // strtoull would happily wrap "-1" around; the helper must not.
    EXPECT_EQ(parseUint64("-1", u), ParseStatus::Invalid);
    EXPECT_EQ(parseUint64("18446744073709551616", u),
              ParseStatus::OutOfRange);
    EXPECT_EQ(parseUint64("12e", u), ParseStatus::Invalid);

    double d = 0.0;
    EXPECT_EQ(parseFloat64("2.5", d), ParseStatus::Ok);
    EXPECT_EQ(d, 2.5);
    EXPECT_EQ(parseFloat64("1e999999", d), ParseStatus::OutOfRange);
    EXPECT_EQ(parseFloat64("1.5meters", d), ParseStatus::Invalid);
    // Underflow quietly rounds toward zero — accepted by design.
    EXPECT_EQ(parseFloat64("1e-999999", d), ParseStatus::Ok);

    EXPECT_STREQ(parseStatusName(ParseStatus::Empty), "empty value");
    EXPECT_STREQ(parseStatusName(ParseStatus::Invalid),
                 "not a number (or trailing garbage)");
    EXPECT_STREQ(parseStatusName(ParseStatus::OutOfRange),
                 "out of range");
}

TEST(Cli, UsageListsFlags)
{
    Cli cli;
    cli.declare("alpha", "1", "the alpha flag");
    std::string usage = cli.usage("prog");
    EXPECT_NE(usage.find("--alpha"), std::string::npos);
    EXPECT_NE(usage.find("the alpha flag"), std::string::npos);
}

// --- json --------------------------------------------------------------

TEST(Json, NestedStructure)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.member("name", "p5sim");
        w.member("count", 3);
        w.member("ok", true);
        w.key("values").beginArray();
        w.value(1.5).value(2.0).null();
        w.endArray();
        w.key("nested").beginObject();
        w.member("inner", std::int64_t{-7});
        w.endObject();
        w.endObject();
    }
    const std::string out = os.str();
    EXPECT_NE(out.find("\"name\": \"p5sim\""), std::string::npos);
    EXPECT_NE(out.find("\"count\": 3"), std::string::npos);
    EXPECT_NE(out.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("null"), std::string::npos);
    EXPECT_NE(out.find("\"inner\": -7"), std::string::npos);
    // Balanced braces/brackets.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(JsonWriter::escape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Json, NonFiniteDoublesBecomeNull)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginArray();
        w.value(std::numeric_limits<double>::infinity());
        w.value(std::numeric_limits<double>::quiet_NaN());
        w.endArray();
    }
    EXPECT_EQ(os.str().find("inf"), std::string::npos);
    EXPECT_EQ(os.str().find("nan"), std::string::npos);
    EXPECT_NE(os.str().find("null"), std::string::npos);
}

TEST(Json, DoublesRoundTripExactly)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.value(0.1234567890123456789);
    }
    EXPECT_EQ(std::stod(os.str()), 0.1234567890123456789);
}

/** A document cut short by an error unwinds without a panic. */
TEST(Json, OpenScopesDoNotPanicWhileAnErrorUnwinds)
{
    std::ostringstream os;
    EXPECT_FATAL(
        {
            JsonWriter w(os);
            w.beginObject();
            w.key("data");
            fatal("payload failed after %d members", 1);
        },
        "^payload failed after 1 members$");
    EXPECT_EQ(os.str(), "{\n  \"data\": \n");
}

} // namespace
} // namespace p5
