/**
 * @file
 * Tests for the declarative config layer: JsonValue parsing, dotted-path
 * binding, serialization round trips, fingerprint identity, unknown-key
 * suggestions and the field-coverage guard.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "config/config.hh"
#include "exp/experiments.hh"
#include "program/trace.hh"
#include "test_helpers.hh"
#include "ubench/ubench.hh"

namespace p5 {
namespace {

/**
 * Path of the small real trace some tests bind workload.trace to
 * (assigning a trace path reads the file's header at set time, so the
 * file must exist). Dumped on first use, reused after.
 */
const char *const config_guard_trace = "config_guard.trace";

void
ensureGuardTrace()
{
    static bool dumped = false;
    if (dumped)
        return;
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt, 0.05);
    dumpTrace(prog, 2, config_guard_trace);
    dumped = true;
}

// --- JsonValue / parser -----------------------------------------------

TEST(JsonValue, ParsesScalars)
{
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_EQ(parseJson("true").asBool(), true);
    EXPECT_EQ(parseJson("false").asBool(), false);
    EXPECT_EQ(parseJson("42").asInt(), 42);
    EXPECT_EQ(parseJson("-7").asInt(), -7);
    EXPECT_DOUBLE_EQ(parseJson("0.25").asDouble(), 0.25);
    EXPECT_DOUBLE_EQ(parseJson("1e3").asDouble(), 1000.0);
    EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
}

TEST(JsonValue, KeepsIntAndDoubleApart)
{
    EXPECT_TRUE(parseJson("3").isInt());
    EXPECT_TRUE(parseJson("3.0").isDouble());
    EXPECT_TRUE(parseJson("3e0").isDouble());
    // Structural equality distinguishes them by design.
    EXPECT_NE(parseJson("3"), parseJson("3.0"));
}

TEST(JsonValue, StringEscapesRoundTrip)
{
    const std::string doc = "\"a\\\"b\\\\c\\n\\t\\u0041\"";
    EXPECT_EQ(parseJson(doc).asString(), "a\"b\\c\n\tA");
}

TEST(JsonValue, ObjectMembersKeepInsertionOrder)
{
    const JsonValue v = parseJson("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_EQ(v.members().size(), 3u);
    EXPECT_EQ(v.members()[0].first, "z");
    EXPECT_EQ(v.members()[1].first, "a");
    EXPECT_EQ(v.members()[2].first, "m");
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("a")->asInt(), 2);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, DumpReparsesToEqualTree)
{
    const char *doc = "{\"b\": true, \"n\": null, \"xs\": [1, 2.5, "
                      "\"s\"], \"o\": {\"k\": -3}}";
    const JsonValue v = parseJson(doc);
    const JsonValue again = parseJson(v.dump());
    EXPECT_EQ(v, again);
    // Serialization is canonical: dump of the reparse is byte-equal.
    EXPECT_EQ(v.dump(), again.dump());
}

TEST(JsonValue, ParseErrorsAreFatalWithPosition)
{
    EXPECT_FATAL(parseJson("{\"a\": }", "doc"), "doc:1:7");
    EXPECT_FATAL(parseJson("[1, 2", "doc"), "doc");
    EXPECT_FATAL(parseJson("{\"a\": 1, \"a\": 2}"), "duplicate");
}

TEST(JsonValue, TrailingGarbageIsFatal)
{
    EXPECT_FATAL(parseJson("1 2"), "");
}

TEST(JsonValue, MalformedNumbersAreFatalWithTheOffendingToken)
{
    // Leading zeros are rejected (the shared integer parser would read
    // them as octal, silently changing the value).
    EXPECT_FATAL(parseJson("010", "doc"), "invalid number '010'");
    EXPECT_FATAL(parseJson("-010", "doc"), "invalid number '-010'");
    EXPECT_FATAL(parseJson("1.2.3", "doc"), "invalid number '1.2.3'");
    EXPECT_FATAL(parseJson("1e", "doc"), "invalid number '1e'");
    // Sane numbers are untouched by the strict path.
    EXPECT_EQ(parseJson("0").asInt(), 0);
    EXPECT_EQ(parseJson("-0").asInt(), 0);
    EXPECT_DOUBLE_EQ(parseJson("0.5").asDouble(), 0.5);
    // Integers too wide for 64 bits degrade to double, not garbage.
    EXPECT_TRUE(parseJson("123456789012345678901234567890").isDouble());
}

TEST(JsonValue, WideIntegersKeepTheirDigits)
{
    // Too wide for int64: a double for arithmetic, but numberText()
    // keeps the exact token so an unsigned parse sees every digit.
    const JsonValue wide = parseJson("18446744073709551615");
    EXPECT_TRUE(wide.isDouble());
    EXPECT_TRUE(wide.isIntegral());
    EXPECT_EQ(wide.numberText(), "18446744073709551615");
    EXPECT_EQ(parseJson("-42").numberText(), "-42");
    EXPECT_EQ(parseJson("0.25").numberText(), "0.25");
    EXPECT_FALSE(parseJson("16.0").isIntegral());
    EXPECT_FALSE(parseJson("1e2").isIntegral());
}

TEST(JsonValue, DeepNestingIsAnErrorNotACrash)
{
    // Far past any stack: the parser refuses at the depth bound with a
    // positioned error instead of recursing until it faults.
    const std::size_t depth = 2'000'000;
    const std::string deep = std::string(depth, '[') + std::string(depth, ']');
    JsonValue out;
    std::string error;
    EXPECT_FALSE(tryParseJson(deep, out, &error, "deep"));
    EXPECT_EQ(error, "deep:1:513: nesting deeper than 512 levels");

    // The bound itself still parses.
    const std::string ok = std::string(512, '[') + std::string(512, ']');
    EXPECT_TRUE(tryParseJson(ok, out, &error, "ok")) << error;
}

TEST(FormatDouble, ShortestRoundTrip)
{
    EXPECT_EQ(formatDouble(0.5), "0.5");
    EXPECT_EQ(formatDouble(0.05), "0.05");
    EXPECT_EQ(formatDouble(1.0), "1");
    EXPECT_EQ(formatDouble(0.1), "0.1");
    // A value needing all 17 digits still round-trips exactly.
    const double tricky = 0.1 + 0.2;
    EXPECT_EQ(std::stod(formatDouble(tricky)), tricky);
}

// --- binding and round trips ------------------------------------------

TEST(ConfigTree, GetReturnsDefaults)
{
    ExpConfig config;
    ConfigTree tree(config);
    EXPECT_EQ(tree.get("core.decode_width"), "5");
    EXPECT_EQ(tree.get("core.balancer.gct_share_threshold"), "0.55");
    EXPECT_EQ(tree.get("core.balancer.action"), "stall");
    EXPECT_EQ(tree.get("fame.min_repetitions"), "10");
    EXPECT_EQ(tree.get("exp.ubench_scale"), "1");
    EXPECT_EQ(tree.get("exp.benchmarks"), "presented");
}

TEST(ConfigTree, SetUpdatesTheBoundStruct)
{
    ExpConfig config;
    ConfigTree tree(config);
    tree.set("core.decode_width", "4");
    EXPECT_EQ(config.core.decodeWidth, 4);
    tree.set("core.balancer.action", "flush");
    EXPECT_EQ(config.core.balancer.action, BalanceAction::Flush);
    tree.set("core.balancer.enabled", "false");
    EXPECT_FALSE(config.core.balancer.enabled);
    tree.set("fame.maiv", "0.05");
    EXPECT_DOUBLE_EQ(config.fame.maiv, 0.05);
    tree.set("exp.benchmarks", "cpu_int,ldint_l1");
    ASSERT_EQ(config.benchmarks.size(), 2u);
    EXPECT_EQ(config.benchmarks[0], UbenchId::CpuInt);
    EXPECT_EQ(config.benchmarks[1], UbenchId::LdintL1);
    EXPECT_EQ(tree.get("exp.benchmarks"), "cpu_int,ldint_l1");
}

TEST(ConfigTree, TextualRoundTripPerPath)
{
    ExpConfig config;
    ConfigTree tree(config);
    for (const std::string &path : tree.paths()) {
        const std::string before = tree.get(path);
        tree.set(path, before); // must parse its own rendering
        EXPECT_EQ(tree.get(path), before) << path;
    }
}

/**
 * One non-default value for every bound path, exercising each bound
 * struct (CoreParams, BalancerParams, all three cache levels, the TLB,
 * DRAM, BHT, FameParams and the exp fields).
 */
const std::pair<const char *, const char *> non_default_values[] = {
    {"core.core_id", "1"},
    {"core.decode_width", "6"},
    {"core.minority_slot_width", "3"},
    {"core.group_size", "4"},
    {"core.gct_groups", "24"},
    {"core.fu_fx", "3"},
    {"core.fu_fp", "1"},
    {"core.fu_ls", "1"},
    {"core.fu_br", "2"},
    {"core.lmq_entries", "16"},
    {"core.mispredict_penalty", "9"},
    {"core.work_conserving_slots", "true"},
    {"core.asid_shift", "40"},
    {"core.priority_aware_walker", "false"},
    {"core.walker_port_gap", "3"},
    {"core.fast_forward", "false"},
    {"core.balancer.enabled", "false"},
    {"core.balancer.gct_share_threshold", "0.6"},
    {"core.balancer.priority_aware_gct", "false"},
    {"core.balancer.min_gct_share_threshold", "0.25"},
    {"core.balancer.max_gct_share_threshold", "0.9"},
    {"core.balancer.priority_aware_lmq", "false"},
    {"core.balancer.min_gct_groups", "3"},
    {"core.balancer.lmq_threshold", "5"},
    {"core.balancer.block_on_tlb_miss", "false"},
    {"core.balancer.action", "flush"},
    {"core.mem.l1d.size_bytes", "65536"},
    {"core.mem.l1d.assoc", "8"},
    {"core.mem.l1d.line_bytes", "64"},
    {"core.mem.l1d.hit_latency", "3"},
    {"core.mem.l1d.service_gap", "2"},
    {"core.mem.l2.size_bytes", "1048576"},
    {"core.mem.l2.assoc", "8"},
    {"core.mem.l2.line_bytes", "64"},
    {"core.mem.l2.hit_latency", "15"},
    {"core.mem.l2.service_gap", "3"},
    {"core.mem.l3.size_bytes", "16777216"},
    {"core.mem.l3.assoc", "24"},
    {"core.mem.l3.line_bytes", "128"},
    {"core.mem.l3.hit_latency", "90"},
    {"core.mem.l3.service_gap", "12"},
    {"core.mem.tlb.entries", "512"},
    {"core.mem.tlb.assoc", "8"},
    {"core.mem.tlb.page_bytes", "65536"},
    {"core.mem.tlb.walk_latency", "120"},
    {"core.mem.dram_latency", "300"},
    {"core.mem.dram_service_gap", "30"},
    {"core.bht.entries", "8192"},
    {"fame.min_repetitions", "7"},
    {"fame.maiv", "0.02"},
    {"fame.warmup_repetitions", "3"},
    {"fame.warmup_tolerance", "0.1"},
    {"fame.max_cycles", "123456789"},
    {"fame.check_period", "2048"},
    {"chip.num_cores", "4"},
    {"sched.policy", "symbiosis"},
    {"sched.quantum", "8192"},
    {"sched.history_quanta", "8"},
    {"workload.trace", config_guard_trace},
    {"workload.trace_fingerprint", "0123456789abcdef"},
    {"workload.trace_secondary", config_guard_trace},
    {"workload.trace_secondary_fingerprint", "fedcba9876543210"},
    {"exp.ubench_scale", "0.75"},
    {"exp.seed", "12345678901234567"},
    {"exp.jobs", "3"},
    {"exp.benchmarks", "all"},
};

TEST(ConfigTree, FullySerializedRoundTripReproducesEveryField)
{
    ensureGuardTrace();
    ExpConfig config;
    ConfigTree tree(config);
    ExpConfig defaults_config;
    ConfigTree defaults(defaults_config);

    // Every bound path gets a non-default value...
    ASSERT_EQ(sizeof(non_default_values) / sizeof(non_default_values[0]),
              tree.paths().size())
        << "a bound path is missing from non_default_values";
    for (const auto &[path, value] : non_default_values) {
        ASSERT_TRUE(tree.has(path)) << path;
        tree.set(path, value);
        EXPECT_NE(tree.get(path), defaults.get(path))
            << path << " value in non_default_values is the default";
    }

    // ...and save -> load into a fresh config reproduces all of them.
    const std::string doc = tree.saveString();
    ExpConfig loaded_config;
    ConfigTree loaded(loaded_config);
    loaded.loadString(doc, "round-trip");
    for (const std::string &path : tree.paths())
        EXPECT_EQ(loaded.get(path), tree.get(path)) << path;
    EXPECT_EQ(loaded.canonical(), tree.canonical());
    EXPECT_EQ(loaded.fingerprint(), tree.fingerprint());

    // Serialization is canonical: re-saving the loaded tree is
    // byte-identical.
    EXPECT_EQ(loaded.saveString(), doc);
}

TEST(ConfigTree, PartialConfigFileOnlyTouchesNamedFields)
{
    ExpConfig config;
    ConfigTree tree(config);
    tree.loadString("{\"core\": {\"lmq_entries\": 16, \"balancer\": "
                    "{\"action\": \"flush\"}}}",
                    "partial");
    EXPECT_EQ(config.core.lmqEntries, 16);
    EXPECT_EQ(config.core.balancer.action, BalanceAction::Flush);
    EXPECT_EQ(config.core.decodeWidth, 5); // untouched default
}

TEST(ConfigTree, ApplyOverrideParsesAssignments)
{
    ExpConfig config;
    ConfigTree tree(config);
    tree.applyOverride("core.gct_groups=32");
    EXPECT_EQ(config.core.gctGroups, 32);
    EXPECT_FATAL(tree.applyOverride("no-equals-sign"), "key=value");
}

TEST(ConfigTree, LargestSeedSurvivesSaveAndLoad)
{
    ExpConfig config;
    ConfigTree tree(config);
    tree.set("exp.seed", "18446744073709551615");
    ExpConfig loaded_config;
    ConfigTree loaded(loaded_config);
    loaded.loadString(tree.saveString(), "max-seed");
    EXPECT_EQ(loaded_config.seed, ~std::uint64_t{0});
    EXPECT_EQ(loaded.fingerprint(), tree.fingerprint());
}

// --- validation and errors --------------------------------------------

TEST(ConfigTree, JsonValueOfTheWrongKindIsFatalNamingTheKey)
{
    ExpConfig config;
    ConfigTree tree(config);
    const std::pair<const char *, const char *> cases[] = {
        {"{\"core\": {\"fast_forward\": 1}}",
         "config key 'core.fast_forward' expects a JSON boolean"},
        {"{\"core\": {\"lmq_entries\": \"16\"}}",
         "config key 'core.lmq_entries' expects a JSON integer"},
        {"{\"core\": {\"lmq_entries\": 16.0}}",
         "config key 'core.lmq_entries' expects a JSON integer"},
        {"{\"exp\": {\"seed\": true}}",
         "config key 'exp.seed' expects a JSON integer"},
        {"{\"fame\": {\"maiv\": \"0.05\"}}",
         "config key 'fame.maiv' expects a JSON number"},
        {"{\"core\": {\"balancer\": {\"action\": 1}}}",
         "config key 'core.balancer.action' expects a JSON string"},
        {"{\"exp\": {\"benchmarks\": false}}",
         "config key 'exp.benchmarks' expects a JSON string"},
    };
    for (const auto &[doc, message] : cases)
        EXPECT_FATAL(tree.loadString(doc, "kind"), message)
            << doc;
    // The right kind with a bad value gets the text parser's message.
    EXPECT_FATAL(tree.loadString("{\"exp\": {\"seed\": -1}}", "kind"),
                 "config key 'exp.seed' expects an unsigned integer");
}

TEST(ConfigTree, TrySetReturnsTheErrorAndKeepsTheValue)
{
    ExpConfig config;
    ConfigTree tree(config);
    // The exact message a refused set() or applyOverride() throws ("" when
    // it took the value).
    auto setError = [&](const char *path, const char *value) {
        return test::fatalMessage([&] { tree.set(path, value); });
    };
    auto overrideError = [&](const char *assignment) {
        return test::fatalMessage([&] { tree.applyOverride(assignment); });
    };
    const int lmq = config.core.lmqEntries;
    EXPECT_EQ(setError("core.lmq_entries", "abc"),
              "config key 'core.lmq_entries' expects an integer, got "
              "'abc' (not a number (or trailing garbage))");
    EXPECT_EQ(setError("core.lmq_entries", "99"),
              "config key 'core.lmq_entries' = 99 out of range [1, 64]");
    EXPECT_EQ(setError("core.lmq_entries", "99999999999"),
              "config key 'core.lmq_entries' = 99999999999 out of range "
              "[1, 64]");
    EXPECT_EQ(config.core.lmqEntries, lmq);
    EXPECT_EQ(setError("fame.maiv", "2"),
              "config key 'fame.maiv' = 2 out of range [1e-06, 1]");
    EXPECT_EQ(setError("core.fast_forward", "maybe"),
              "config key 'core.fast_forward' expects a boolean, got "
              "'maybe'");
    EXPECT_EQ(setError("core.balancer.action", "explode"),
              "config key 'core.balancer.action' expects 'stall' or "
              "'flush', got 'explode'");
    EXPECT_EQ(setError("sched.policy", "fifo"),
              "config key 'sched.policy' expects 'pinned', 'random' or "
              "'symbiosis', got 'fifo'");
    EXPECT_EQ(setError("workload.trace_fingerprint", "ABCDEF0123456789"),
              "config key 'workload.trace_fingerprint' = "
              "'ABCDEF0123456789' is not a 16-digit lowercase hex "
              "fingerprint");
    EXPECT_EQ(setError("exp.benchmarks", "cpu_int,nope"),
              "config key 'exp.benchmarks' names unknown "
              "micro-benchmark 'nope'");
    EXPECT_EQ(config.benchmarks, presentedUbench());
    EXPECT_EQ(setError("core.decode_widht", "4"),
              "unknown config key 'core.decode_widht'; did you mean "
              "'core.decode_width'?");
    EXPECT_EQ(overrideError("no-equals-sign"),
              "expected key=value, got 'no-equals-sign'");

    EXPECT_EQ(overrideError("core.lmq_entries=16"), "");
    EXPECT_EQ(config.core.lmqEntries, 16);
    EXPECT_EQ(setError("sched.policy", "random"), "");
    EXPECT_EQ(config.sched.policy, AllocPolicy::Random);
    EXPECT_EQ(tree.get("sched.policy"), allocPolicyName(AllocPolicy::Random));
}

TEST(ConfigTree, UnknownKeySuggestsNearestPath)
{
    ExpConfig config;
    ConfigTree tree(config);
    EXPECT_EQ(tree.suggest("core.decode_widht"), "core.decode_width");
    EXPECT_EQ(tree.suggest("fame.mavi"), "fame.maiv");
    EXPECT_FATAL(tree.set("core.decode_widht", "4"),
                 "did you mean 'core.decode_width'");
    EXPECT_FATAL(tree.loadString("{\"core\": {\"decode_wdith\": 4}}", "bad"),
                 "did you mean");
}

TEST(ConfigTree, OutOfRangeValuesAreFatal)
{
    ExpConfig config;
    ConfigTree tree(config);
    EXPECT_FATAL(tree.set("core.decode_width", "9"), "out of range");
    EXPECT_FATAL(tree.set("core.decode_width", "0"), "out of range");
    EXPECT_FATAL(tree.set("fame.maiv", "2"), "out of range");
    EXPECT_FATAL(tree.set("core.decode_width", "abc"), "integer");
    EXPECT_FATAL(tree.set("core.balancer.action", "explode"), "stall");
    EXPECT_FATAL(tree.set("exp.benchmarks", "not_a_benchmark"), "");
}

TEST(ConfigTree, MalformedNumbersAreFatalNotTruncated)
{
    // The full strict-parse taxonomy, uniform across field types:
    // trailing garbage ("8x" must not become 8), overflow, and empty
    // strings are all fatal at set time.
    ExpConfig config;
    ConfigTree tree(config);
    EXPECT_FATAL(tree.set("core.decode_width", "8x"), "trailing garbage");
    EXPECT_FATAL(tree.set("core.decode_width", ""), "empty value");
    EXPECT_FATAL(tree.set("core.decode_width",
                          "99999999999999999999999"),
                 "out of range");
    EXPECT_FATAL(tree.set("fame.maiv", "0.01oops"), "trailing garbage");
    EXPECT_FATAL(tree.set("fame.maiv", "1e999999"), "out of range");
    EXPECT_FATAL(tree.set("exp.seed", "12e"), "trailing garbage");
    EXPECT_FATAL(tree.set("exp.seed", "-1"), "");
    EXPECT_FATAL(tree.set("exp.seed", " "), "empty value");
}

TEST(ConfigTree, ValidateRunsCrossFieldChecks)
{
    ExpConfig config;
    ConfigTree tree(config);
    tree.validate(); // defaults are valid

    // decode_width 4 with the default group_size 5 violates the
    // CoreParams cross-field invariant even though both fields are
    // individually in range.
    config.core.decodeWidth = 4;
    EXPECT_FATAL(tree.validate(), "groupSize");
}

// --- identity / fingerprint -------------------------------------------

TEST(ConfigTree, FingerprintIsStableAcrossInstances)
{
    ExpConfig a, b;
    EXPECT_EQ(ConfigTree(a).fingerprint(), ConfigTree(b).fingerprint());
    EXPECT_EQ(ConfigTree(a).canonical(), ConfigTree(b).canonical());
}

TEST(ConfigTree, FingerprintTracksIdentityFields)
{
    const auto fingerprintWith = [](const char *path, const char *value) {
        ExpConfig config;
        ConfigTree tree(config);
        tree.set(path, value);
        return tree.fingerprint();
    };
    // Each override moves the fingerprint to a value of its own (chip
    // and scheduler paths included), and repeating it gives the same.
    ExpConfig base;
    std::vector<std::uint64_t> seen = {ConfigTree(base).fingerprint()};
    const std::pair<const char *, const char *> overrides[] = {
        {"core.lmq_entries", "16"},   {"exp.seed", "99"},
        {"chip.num_cores", "4"},      {"sched.policy", "symbiosis"},
        {"sched.quantum", "8192"},
    };
    for (const auto &[path, value] : overrides) {
        const std::uint64_t fp = fingerprintWith(path, value);
        EXPECT_EQ(fp, fingerprintWith(path, value)) << path;
        EXPECT_EQ(std::find(seen.begin(), seen.end(), fp), seen.end())
            << path;
        seen.push_back(fp);
    }
}

TEST(ConfigTree, ExecutionOnlyFieldsStayOutOfTheFingerprint)
{
    // Worker count and benchmark selection change how work is
    // scheduled, never what one simulation computes — so configs that
    // differ only there share a fingerprint (and cached results).
    ExpConfig base, sched;
    ConfigTree sched_tree(sched);
    sched_tree.set("exp.jobs", "7");
    sched_tree.set("exp.benchmarks", "all");
    EXPECT_EQ(ConfigTree(base).fingerprint(), sched_tree.fingerprint());
}

TEST(ConfigTree, StampTagWritesTheHexFingerprint)
{
    ExpConfig config;
    ConfigTree tree(config);
    EXPECT_TRUE(config.configTag.empty());
    tree.stampTag();
    EXPECT_EQ(config.configTag, tree.fingerprintHex());
    EXPECT_EQ(config.configTag.size(), 16u);
    EXPECT_EQ(config.configTag.find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

TEST(ConfigTree, CanonicalFormIsSchemaVersionedPathValueLines)
{
    ExpConfig config;
    ConfigTree tree(config);
    const std::string canonical = tree.canonical();
    EXPECT_EQ(canonical.rfind("p5sim-config schema=1\n", 0), 0u);
    EXPECT_NE(canonical.find("core.decode_width=5\n"),
              std::string::npos);
    // Non-identity fields never appear.
    EXPECT_EQ(canonical.find("exp.jobs"), std::string::npos);
    EXPECT_EQ(canonical.find("exp.benchmarks"), std::string::npos);
    // The trace *path* is a location, not an identity...
    EXPECT_EQ(canonical.find("workload.trace="), std::string::npos);
    // ...but the derived fingerprint is.
    EXPECT_NE(canonical.find("workload.trace_fingerprint=\n"),
              std::string::npos);
}

/**
 * Store and checkpoint addresses derive from these fingerprints, so a
 * change re-keys every result store and checkpoint area. The literals
 * were recorded before the config bindings were last rewritten.
 */
TEST(ConfigTree, FingerprintsArePinned)
{
    ensureGuardTrace();
    ExpConfig defaults;
    ExpConfig fast = ExpConfig::fast();
    ExpConfig non_default;
    {
        ConfigTree tree(non_default);
        for (const auto &[path, value] : non_default_values)
            tree.set(path, value);
    }
    const struct
    {
        ExpConfig *config;
        const char *fingerprint;
        const char *warm;
    } pins[] = {
        {&defaults, "1e98645e7fbafc0d", "caa44cfe3087efd1"},
        {&fast, "c04c6a8aa3df252e", "6a66002e4dafabca"},
        {&non_default, "a8fd92e2f9acf1a2", "813c5b43b847e141"},
    };
    for (const auto &pin : pins) {
        ConfigTree tree(*pin.config);
        EXPECT_EQ(tree.fingerprintHex(), pin.fingerprint);
        EXPECT_EQ(tree.warmFingerprintHex(), pin.warm);
    }
}

// --- workload.trace binding --------------------------------------------

TEST(ConfigTrace, AssigningPathDerivesFingerprint)
{
    ensureGuardTrace();
    ExpConfig config;
    ConfigTree tree(config);
    const std::string base = tree.fingerprintHex();

    tree.set("workload.trace", config_guard_trace);
    EXPECT_EQ(config.workloadTrace, config_guard_trace);
    const std::string fp =
        readTraceHeader(config_guard_trace).fingerprint();
    EXPECT_EQ(config.workloadTraceFp, fp);
    EXPECT_EQ(tree.get("workload.trace_fingerprint"), fp);

    // The trace content re-keys the config...
    EXPECT_NE(tree.fingerprintHex(), base);
    // ...and the warm phase (a trace shapes the warm trajectory).
    tree.validate();

    // Clearing the path clears the derived identity with it.
    tree.set("workload.trace", "");
    EXPECT_TRUE(config.workloadTrace.empty());
    EXPECT_TRUE(config.workloadTraceFp.empty());
    EXPECT_EQ(tree.fingerprintHex(), base);
}

TEST(ConfigTraceDeath, MissingFileAndBrokenIdentityAreFatal)
{
    ensureGuardTrace();
    ExpConfig config;
    ConfigTree tree(config);
    EXPECT_FATAL(tree.set("workload.trace", "no_such.trace"),
                 "no_such.trace");
    EXPECT_FATAL(tree.set("workload.trace_fingerprint", "xyz"),
                 "hex fingerprint");

    // A fingerprint without a trace is meaningless...
    config.workloadTraceFp = "0123456789abcdef";
    EXPECT_FATAL(tree.validate(), "without a trace");
    config.workloadTraceFp.clear();

    // ...and a stale fingerprint (file changed since keying) is a lie.
    tree.set("workload.trace", config_guard_trace);
    config.workloadTraceFp = "0123456789abcdef";
    EXPECT_FATAL(tree.validate(), "changed since it was keyed");
}

// --- coverage guard ----------------------------------------------------

/**
 * Field-coverage guard: adding a member to a bound param struct changes
 * its size, which trips the pin below and reminds you to (a) bind the
 * new field in ConfigTree::bindAll(), (b) add it to SimJob's key
 * rendering if it affects simulation, and (c) update these pins plus
 * the bound-path count. The sizes are for x86_64/LP64 (the only
 * supported CI target).
 */
TEST(ConfigCoverage, BoundStructSizesArePinned)
{
    EXPECT_EQ(sizeof(BalancerParams), 64u);
    EXPECT_EQ(sizeof(CacheParams), 56u);
    EXPECT_EQ(sizeof(TlbParams), 56u);
    EXPECT_EQ(sizeof(BhtParams), 4u);
    EXPECT_EQ(sizeof(HierarchyParams), 232u);
    EXPECT_EQ(sizeof(CoreParams), 376u);
    EXPECT_EQ(sizeof(FameParams), 48u);
    EXPECT_EQ(sizeof(SchedParams), 24u);
    EXPECT_EQ(sizeof(ExpConfig), 712u);
}

TEST(ConfigCoverage, BoundPathAndIdentityCountsArePinned)
{
    ExpConfig config;
    ConfigTree tree(config);
    EXPECT_EQ(tree.paths().size(), 66u);

    // Identity fields = everything except exp.jobs / exp.benchmarks and
    // the two workload trace *paths* (their fingerprints carry the
    // identity).
    std::size_t identity_lines = 0;
    const std::string canonical = tree.canonical();
    for (char c : canonical)
        identity_lines += (c == '\n');
    EXPECT_EQ(identity_lines, 1u /* schema line */ + 62u);
}

TEST(ConfigCoverage, EveryPathIsUniqueAndWellFormed)
{
    ExpConfig config;
    ConfigTree tree(config);
    std::vector<std::string> paths = tree.paths();
    for (const std::string &p : paths) {
        EXPECT_EQ(p.find_first_not_of(
                      "abcdefghijklmnopqrstuvwxyz0123456789_."),
                  std::string::npos)
            << p;
        EXPECT_FALSE(tree.help(p).empty()) << p;
    }
    std::sort(paths.begin(), paths.end());
    EXPECT_EQ(std::adjacent_find(paths.begin(), paths.end()),
              paths.end())
        << "duplicate bound path";
}

TEST(EditDistance, Levenshtein)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("abc", "abc"), 0u);
    EXPECT_EQ(editDistance("abc", "abd"), 1u);
    EXPECT_EQ(editDistance("abc", "acb"), 2u);
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(editDistance("", "abc"), 3u);
}

} // namespace
} // namespace p5
