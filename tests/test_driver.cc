/**
 * @file
 * In-process tests of the unified p5sim driver: per-subcommand --help,
 * unknown-key suggestions, provenance-stamped reports, equivalence of
 * the driver's data payload with the direct producer path (the
 * pre-driver bench binaries' output), sweep fan-out through the job
 * pool, and the `run` subcommand's StatGroup JSON dump.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/ckpt.hh"
#include "common/artifact.hh"
#include "common/json.hh"
#include "config/config.hh"
#include "driver/driver.hh"
#include "driver/perf.hh"
#include "exp/experiments.hh"
#include "exp/report.hh"
#include "fame/fame.hh"
#include "fame/sim_runner.hh"
#include "store/result_store.hh"
#include "test_helpers.hh"
#include "ubench/ubench.hh"
#include "workloads/spec_proxy.hh"

namespace p5 {
namespace {

struct Invocation
{
    int exitCode = 0;
    std::string out;
    std::string err;
};

/** Run the driver in-process with "p5sim" prepended as argv[0]. */
Invocation
invokeWithInput(const std::vector<const char *> &args,
                const std::string &input)
{
    std::vector<const char *> argv;
    argv.push_back("p5sim");
    argv.insert(argv.end(), args.begin(), args.end());
    std::ostringstream out, err;
    std::istringstream in(input);
    Invocation result;
    result.exitCode = driverMain(static_cast<int>(argv.size()),
                                 argv.data(), out, err, in);
    result.out = out.str();
    result.err = err.str();
    return result;
}

Invocation
invoke(std::initializer_list<const char *> args)
{
    return invokeWithInput(std::vector<const char *>(args), "");
}

/** The driver's error path: exit code 1 and @p regex in its err text. */
::testing::AssertionResult
failsWith(const Invocation &run, const char *regex)
{
    if (run.exitCode != 1)
        return ::testing::AssertionFailure()
               << "exit code " << run.exitCode << ", err: " << run.err;
    if (!test::containsRegex(run.err, regex))
        return ::testing::AssertionFailure()
               << "err '" << run.err << "' does not match /" << regex
               << "/";
    return ::testing::AssertionSuccess();
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "p5sim_driver_" + name;
}

/**
 * Per-test result-store directory. TempDir() survives across runs, so
 * a store left by a previous (possibly failed) run is removed first —
 * the entry counts below assume a cold store.
 */
std::string
freshStoreDir(const std::string &name)
{
    const std::string dir = tempPath(name);
    std::filesystem::remove_all(dir);
    return dir;
}

JsonValue
readReport(const std::string &path)
{
    return parseJsonFile(path);
}

/** Dump a report with its "provenance" member removed. */
std::string
dumpWithoutProvenance(const JsonValue &report)
{
    JsonValue stripped = JsonValue::makeObject();
    for (const auto &m : report.members())
        if (m.first != "provenance")
            stripped.setMember(m.first, m.second);
    return stripped.dump();
}

// --- help / dispatch ---------------------------------------------------

TEST(Driver, GlobalHelpListsSubcommands)
{
    const Invocation help = invoke({"help"});
    EXPECT_EQ(help.exitCode, 0);
    for (const char *sub :
         {"table1", "table2", "table3", "table4", "fig2", "fig3",
          "fig4", "fig5", "fig6", "ablation", "run", "sweep", "alloc",
          "serve", "perf"})
        EXPECT_NE(help.out.find(sub), std::string::npos) << sub;
}

/** The subcommand names `p5sim help` lists, e.g. "fig2", "trace dump". */
std::vector<std::string>
listedSubcommands()
{
    const std::string help = invoke({"help"}).out;
    std::istringstream lines(help.substr(help.find("subcommands:\n")));
    std::vector<std::string> names;
    std::string line;
    std::getline(lines, line);
    while (std::getline(lines, line) && !line.empty())
        names.push_back(line.substr(2, line.find("  ", 2) - 2));
    return names;
}

TEST(Driver, EverySubcommandAnswersHelp)
{
    const std::vector<std::string> names = listedSubcommands();
    for (const char *expected :
         {"fig5", "store-gc", "trace dump", "trace info", "trace check"})
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    for (const std::string &name : names) {
        // Split "trace dump" into its words; --help is answered in
        // process, never by exiting.
        std::vector<std::string> words;
        std::istringstream split(name);
        for (std::string word; split >> word;)
            words.push_back(word);
        std::vector<const char *> args;
        for (const std::string &word : words)
            args.push_back(word.c_str());
        args.push_back("--help");
        const Invocation help = invokeWithInput(args, "");
        EXPECT_EQ(help.exitCode, 0) << name;
        EXPECT_NE(help.out.find("usage: p5sim " + name), std::string::npos)
            << name << ": " << help.out;
    }
    // The pair/sweep/alloc/store flags only appear where they apply.
    EXPECT_NE(invoke({"sweep", "--help"}).out.find("--sweep"),
              std::string::npos);
    EXPECT_NE(invoke({"sweep", "--help"}).out.find("--resume"),
              std::string::npos);
    EXPECT_NE(invoke({"serve", "--help"}).out.find("--store"),
              std::string::npos);
    EXPECT_EQ(invoke({"serve", "--help"}).out.find("--resume"),
              std::string::npos);
    EXPECT_NE(invoke({"run", "--help"}).out.find("--primary"),
              std::string::npos);
    EXPECT_NE(invoke({"alloc", "--help"}).out.find("--mix"),
              std::string::npos);
    EXPECT_EQ(invoke({"table3", "--help"}).out.find("--sweep"),
              std::string::npos);
    EXPECT_EQ(invoke({"table3", "--help"}).out.find("--mix"),
              std::string::npos);
}

TEST(Driver, NoArgumentsFailsWithUsage)
{
    const Invocation bare = invoke({});
    EXPECT_EQ(bare.exitCode, 1);
    EXPECT_NE(bare.err.find("usage:"), std::string::npos);
}

TEST(Driver, UnknownSubcommandFails)
{
    const Invocation bad = invoke({"table9"});
    EXPECT_EQ(bad.exitCode, 1);
    EXPECT_NE(bad.err.find("unknown subcommand 'table9'"),
              std::string::npos);
}

TEST(Driver, UnknownSetKeySuggestsNearestPath)
{
    EXPECT_TRUE(failsWith(invoke({"table1", "--set", "core.decode_widht=4"}),
                          "did you mean 'core.decode_width'"));
}

TEST(Driver, OutOfRangeSetIsFatal)
{
    EXPECT_TRUE(failsWith(invoke({"table1", "--set", "core.decode_width=99"}),
                          "out of range"));
}

TEST(DriverDeath, BareJsonFlagNeedsAPathAndWritesNothing)
{
    // A bare --json used to become the path "true": the report landed
    // in a file named "true" in the working directory.
    const std::string dir = freshStoreDir("bare_json");
    std::filesystem::create_directories(dir);
    const std::vector<std::vector<const char *>> lines = {
        {"table3", "--fast", "--json"},
        {"table3", "--json", "--fast"},
        {"perf", "--json"},
    };
    const std::filesystem::path cwd = std::filesystem::current_path();
    std::filesystem::current_path(dir);
    for (const auto &line : lines)
        EXPECT_TRUE(failsWith(invokeWithInput(line, ""),
                              "flag '--json' needs a value"))
            << line[0] << " " << line[1];
    std::filesystem::current_path(cwd);
    EXPECT_FALSE(std::filesystem::exists(dir + "/true"));
    EXPECT_TRUE(std::filesystem::is_empty(dir));
}

// --- provenance --------------------------------------------------------

TEST(Driver, ReportsCarryProvenance)
{
    const std::string path = tempPath("table1.json");
    const Invocation run =
        invoke({"table1", ("--json=" + path).c_str()});
    ASSERT_EQ(run.exitCode, 0);

    const JsonValue report = readReport(path);
    const JsonValue *prov = report.find("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_EQ(prov->find("schemaVersion")->asInt(),
              config_schema_version);
    EXPECT_EQ(prov->find("fingerprint")->asString().size(), 16u);
    EXPECT_EQ(prov->find("seed")->asInt(), 0);
    EXPECT_TRUE(prov->find("sweep")->isObject());
    std::remove(path.c_str());
}

TEST(Driver, FingerprintIsStableAndTracksOverrides)
{
    const std::string path_a = tempPath("fp_a.json");
    const std::string path_b = tempPath("fp_b.json");
    const std::string path_c = tempPath("fp_c.json");
    ASSERT_EQ(invoke({"table1", ("--json=" + path_a).c_str()}).exitCode,
              0);
    ASSERT_EQ(invoke({"table1", ("--json=" + path_b).c_str()}).exitCode,
              0);
    ASSERT_EQ(invoke({"table1", "--set", "core.lmq_entries=16",
                      ("--json=" + path_c).c_str()})
                  .exitCode,
              0);

    const std::string fp_a = readReport(path_a)
                                 .find("provenance")
                                 ->find("fingerprint")
                                 ->asString();
    const std::string fp_b = readReport(path_b)
                                 .find("provenance")
                                 ->find("fingerprint")
                                 ->asString();
    const std::string fp_c = readReport(path_c)
                                 .find("provenance")
                                 ->find("fingerprint")
                                 ->asString();
    EXPECT_EQ(fp_a, fp_b);
    EXPECT_NE(fp_a, fp_c);

    // The driver's fingerprint equals the one ConfigTree computes for
    // the same effective configuration.
    ExpConfig config;
    EXPECT_EQ(fp_a, ConfigTree(config).fingerprintHex());
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
    std::remove(path_c.c_str());
}

TEST(Driver, SeedIsStampedIntoProvenanceAndFingerprint)
{
    const std::string path = tempPath("seed.json");
    ASSERT_EQ(invoke({"table1", "--seed=42",
                      ("--json=" + path).c_str()})
                  .exitCode,
              0);
    const JsonValue report = readReport(path);
    EXPECT_EQ(report.find("provenance")->find("seed")->asInt(), 42);

    ExpConfig config;
    ConfigTree tree(config);
    tree.set("exp.seed", "42");
    EXPECT_EQ(report.find("provenance")->find("fingerprint")->asString(),
              tree.fingerprintHex());
    std::remove(path.c_str());
}

// --- equivalence with the direct producer path ------------------------

/**
 * Write the pre-driver bench_common.hh envelope (no provenance) around
 * the given payload — the exact byte layout the standalone bench
 * binaries produced before the driver refactor.
 */
template <typename PayloadFn>
std::string
legacyEnvelope(const char *experiment, const ExpConfig &config,
               std::uint64_t hits, std::uint64_t misses,
               PayloadFn &&payload)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.member("experiment", experiment);
        w.member("jobs", config.jobs ? config.jobs
                                     : SimRunner::defaultWorkers());
        w.member("scale", config.ubenchScale);
        w.member("minRepetitions", config.fame.minRepetitions);
        w.member("maiv", config.fame.maiv);
        w.member("cacheHits", hits);
        w.member("cacheMisses", misses);
        w.key("data");
        payload(w);
        w.endObject();
    }
    return os.str();
}

/**
 * The driver's report must be byte-identical to the legacy bench
 * binary's, modulo the added "provenance" member. The cache counters
 * are process-cumulative, so the expected document borrows the actual
 * report's values for those two members — everything else (including
 * the full "data" payload) is compared byte-for-byte.
 */
void
expectLegacyEquivalent(const std::string &json_path,
                       const char *experiment,
                       const std::function<void(JsonWriter &)> &payload)
{
    const JsonValue report = readReport(json_path);
    ExpConfig config = ExpConfig::fast();
    const std::string expected = legacyEnvelope(
        experiment, config,
        static_cast<std::uint64_t>(
            report.find("cacheHits")->asInt()),
        static_cast<std::uint64_t>(
            report.find("cacheMisses")->asInt()),
        payload);
    EXPECT_EQ(dumpWithoutProvenance(report),
              parseJson(expected, "expected").dump());
}

TEST(Driver, Table3MatchesDirectProducerByteForByte)
{
    const std::string path = tempPath("table3.json");
    ASSERT_EQ(
        invoke({"table3", "--fast", ("--json=" + path).c_str()})
            .exitCode,
        0);

    // Direct producer path with a private cache (the driver's jobs are
    // keyed with the config fingerprint, so the process cache would
    // re-simulate anyway; a private cache keeps this test hermetic).
    ExpConfig config = ExpConfig::fast();
    ResultCache cache;
    config.cache = &cache;
    const Table3Data data = runTable3(config);
    expectLegacyEquivalent(path, "table3", [&](JsonWriter &w) {
        writeJson(w, data);
    });
    std::remove(path.c_str());
}

TEST(Driver, Fig6MatchesDirectProducerByteForByte)
{
    const std::string path = tempPath("fig6.json");
    const Invocation run =
        invoke({"fig6", "--fast", ("--json=" + path).c_str()});
    ASSERT_EQ(run.exitCode, 0);
    P5_EXPECT_DIGEST(test::fnv1a(run.out), 0xb56d97e8a9aa82e5ull);

    ExpConfig config = ExpConfig::fast();
    ResultCache cache;
    config.cache = &cache;
    const TransparencyData data = runFig6(config);
    expectLegacyEquivalent(path, "fig6", [&](JsonWriter &w) {
        writeJson(w, data);
    });
    std::remove(path.c_str());
}

// --- ablation ----------------------------------------------------------

/**
 * The ablation rows run as one batch: stdout is byte-identical at one
 * and four workers, and every row's IPCs in the --json report equal a
 * cold runFame of that row alone, which is how the command used to
 * compute them.
 */
TEST(Driver, AblationBatchMatchesRowByRowRunFame)
{
    const std::string j1 = tempPath("ablation_1.json");
    const std::string j4 = tempPath("ablation_4.json");
    // Distinct seeds re-key every job, so the second run is not served
    // from the first one's cache.
    const Invocation r1 =
        invoke({"ablation", "--fast", "--jobs=1", "--seed", "2001",
                ("--json=" + j1).c_str()});
    const Invocation r4 =
        invoke({"ablation", "--fast", "--jobs=4", "--seed", "2002",
                ("--json=" + j4).c_str()});
    ASSERT_EQ(r1.exitCode, 0);
    ASSERT_EQ(r4.exitCode, 0);
    EXPECT_EQ(r1.out, r4.out);
    P5_EXPECT_DIGEST(test::fnv1a(r1.out), 0x8da06166dcbe5383ull);
    EXPECT_EQ(readReport(j1).find("data")->dump(),
              readReport(j4).find("data")->dump());

    const ExpConfig fast = ExpConfig::fast();
    auto ub = [&fast](UbenchId id) {
        return makeUbench(id, fast.ubenchScale);
    };
    auto sp = [&fast](SpecProxyId id) {
        return makeSpecProxy(id, fast.ubenchScale);
    };
    auto fame = [&fast](const SyntheticProgram &p,
                        const SyntheticProgram &s, int prio_p, int prio_s,
                        const CoreParams &core) {
        return runFame(core, &p, &s, prio_p, prio_s, fast.fame);
    };
    auto with = [&fast](const std::function<void(CoreParams &)> &tweak) {
        CoreParams core = fast.core;
        tweak(core);
        return core;
    };
    auto lmq = [&with](int entries) {
        return with([entries](CoreParams &c) {
            c.lmqEntries = entries;
            c.balancer.lmqThreshold =
                std::min(c.balancer.lmqThreshold, entries);
        });
    };
    auto width = [&with](int w) {
        return with([w](CoreParams &c) { c.minoritySlotWidth = w; });
    };
    const CoreParams &base = fast.core;
    using S = SpecProxyId;
    using U = UbenchId;
    const std::vector<std::vector<FameResult>> expected = {
        {fame(sp(S::H264ref), sp(S::Mcf), 4, 4, base),
         fame(sp(S::H264ref), sp(S::Mcf), 4, 4, with([](CoreParams &c) {
                  c.balancer.enabled = false;
              }))},
        {fame(ub(U::BrHit), ub(U::LdintMem), 4, 4, base),
         fame(ub(U::BrHit), ub(U::LdintMem), 4, 4,
              with([](CoreParams &c) { c.workConservingSlots = true; }))},
        {fame(ub(U::CpuInt), ub(U::CpuInt), 2, 6, width(1)),
         fame(ub(U::CpuInt), ub(U::CpuInt), 2, 6, width(2)),
         fame(ub(U::CpuInt), ub(U::CpuInt), 2, 6, width(5))},
        {fame(sp(S::H264ref), sp(S::Mcf), 6, 2, base),
         fame(sp(S::H264ref), sp(S::Mcf), 6, 2, with([](CoreParams &c) {
                  c.balancer.priorityAwareGct = false;
              }))},
        {fame(ub(U::LdintMem), ub(U::LdintMem), 6, 2, base),
         fame(ub(U::LdintMem), ub(U::LdintMem), 6, 2,
              with([](CoreParams &c) { c.priorityAwareWalker = false; }))},
        {fame(ub(U::LdintL2), ub(U::LdintL2), 4, 4, lmq(2)),
         fame(ub(U::LdintL2), ub(U::LdintL2), 4, 4, lmq(4)),
         fame(ub(U::LdintL2), ub(U::LdintL2), 4, 4, lmq(8)),
         fame(ub(U::LdintL2), ub(U::LdintL2), 4, 4, lmq(16))},
    };

    const JsonValue report = readReport(j4);
    EXPECT_EQ(report.find("experiment")->asString(), "ablation");
    ASSERT_NE(report.find("provenance"), nullptr);
    const std::vector<JsonValue> &sections =
        report.find("data")->elements();
    ASSERT_EQ(sections.size(), expected.size());
    for (std::size_t i = 0; i < sections.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(sections[i].find("title")->asString().rfind(
                      "Ablation " + std::to_string(i + 1) + ":", 0),
                  0u);
        const std::vector<JsonValue> &rows =
            sections[i].find("rows")->elements();
        ASSERT_EQ(rows.size(), expected[i].size());
        for (std::size_t r = 0; r < rows.size(); ++r) {
            SCOPED_TRACE(rows[r].find("config")->asString());
            const FameResult &want = expected[i][r];
            EXPECT_EQ(rows[r].find("ipcP")->asDouble(),
                      want.thread[0].avgIpc());
            EXPECT_EQ(rows[r].find("ipcS")->asDouble(),
                      want.thread[1].avgIpc());
            EXPECT_EQ(rows[r].find("total")->asDouble(),
                      want.thread[0].avgIpc() + want.thread[1].avgIpc());
        }
    }
    std::remove(j1.c_str());
    std::remove(j4.c_str());
}

// --- sweep -------------------------------------------------------------

TEST(Driver, SweepFansTheCartesianProductThroughThePool)
{
    const std::string path = tempPath("sweep.json");
    const Invocation run = invoke(
        {"sweep", "--fast", "--jobs=2", "--sweep",
         "core.lmq_entries=8,16", "--sweep", "core.walker_port_gap=0,2",
         ("--json=" + path).c_str()});
    ASSERT_EQ(run.exitCode, 0);

    const JsonValue report = readReport(path);
    EXPECT_EQ(report.find("experiment")->asString(), "sweep");
    EXPECT_EQ(report.find("jobs")->asInt(), 2);

    // The envelope records the axes...
    const JsonValue *sweep =
        report.find("provenance")->find("sweep");
    ASSERT_NE(sweep->find("core.lmq_entries"), nullptr);
    EXPECT_EQ(sweep->find("core.lmq_entries")->asString(), "8,16");
    EXPECT_EQ(sweep->find("core.walker_port_gap")->asString(), "0,2");

    // ...and the payload one point per product element, each with its
    // own coordinates and a distinct fingerprint.
    const JsonValue *points = report.find("data")->find("points");
    ASSERT_EQ(points->elements().size(), 4u);
    std::vector<std::string> fingerprints;
    for (const JsonValue &pt : points->elements()) {
        const JsonValue *coords = pt.find("coords");
        ASSERT_NE(coords->find("core.lmq_entries"), nullptr);
        ASSERT_NE(coords->find("core.walker_port_gap"), nullptr);
        fingerprints.push_back(pt.find("fingerprint")->asString());
        EXPECT_GT(pt.find("ipcTotal")->asDouble(), 0.0);
    }
    std::sort(fingerprints.begin(), fingerprints.end());
    EXPECT_EQ(std::unique(fingerprints.begin(), fingerprints.end()),
              fingerprints.end())
        << "every sweep point must have a distinct fingerprint";
    std::remove(path.c_str());
}

TEST(Driver, RepeatedSweepIsServedFromTheResultCache)
{
    const std::string path_a = tempPath("sweep_a.json");
    const std::string path_b = tempPath("sweep_b.json");
    ASSERT_EQ(invoke({"sweep", "--fast", "--sweep",
                      "core.mem.dram_latency=200,260",
                      ("--json=" + path_a).c_str()})
                  .exitCode,
              0);
    const Invocation second = invoke(
        {"sweep", "--fast", "--sweep", "core.mem.dram_latency=200,260",
         ("--json=" + path_b).c_str()});
    ASSERT_EQ(second.exitCode, 0);

    // Identical (config, job) pairs coalesce: the second run adds no
    // misses to the process-wide cache, only hits.
    const JsonValue a = readReport(path_a);
    const JsonValue b = readReport(path_b);
    EXPECT_EQ(a.find("cacheMisses")->asInt(),
              b.find("cacheMisses")->asInt());
    EXPECT_GE(b.find("cacheHits")->asInt(),
              a.find("cacheHits")->asInt() + 2);
    // Same configs -> same per-point fingerprints.
    EXPECT_EQ(a.find("data")->dump(), b.find("data")->dump());
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Driver, SweepWithoutAxesIsFatal)
{
    EXPECT_TRUE(failsWith(invoke({"sweep", "--fast"}), "--sweep"));
    EXPECT_TRUE(failsWith(invoke({"sweep", "--fast", "--sweep", "no-equals"}),
                          "key=v1,v2"));
    EXPECT_TRUE(failsWith(invoke({"sweep", "--fast", "--sweep",
                                  "core.lmq_entrees=4,8"}),
                          "did you mean"));
}

TEST(Driver, SweepRejectsDuplicateAxes)
{
    // A path swept twice would multiply the point count while only the
    // later axis's value ever applied.
    EXPECT_TRUE(failsWith(invoke({"sweep", "--fast", "--sweep",
                                  "core.lmq_entries=8,16", "--sweep",
                                  "core.lmq_entries=8,12"}),
                          "duplicate --sweep axis 'core.lmq_entries'"));
}

TEST(Driver, SweepRejectsARepeatedValue)
{
    // "8,8" would simulate and print the same point (one fingerprint)
    // twice.
    EXPECT_TRUE(failsWith(invoke({"sweep", "--fast", "--sweep",
                                  "core.lmq_entries=8,16,8"}),
                          "duplicate value '8' in --sweep axis "
                          "'core.lmq_entries'"));
}

TEST(Driver, SweepStoreFlagsAreValidated)
{
    EXPECT_TRUE(failsWith(invoke({"sweep", "--fast", "--sweep",
                                  "core.lmq_entries=8,16", "--resume"}),
                          "--resume requires --store"));
    for (const char *bad : {"2", "a/b", "2/2", "-1/2", "0/0", "1/2x"})
        EXPECT_TRUE(failsWith(invoke({"sweep", "--fast", "--sweep",
                                      "core.lmq_entries=8,16", "--store",
                                      "/tmp/unused", "--shard", bad}),
                              "--shard expects i/N"))
            << bad;
}

TEST(DriverDeath, UnwritableJsonFailsBeforeAnyPointIsStored)
{
    // The --json destination is checked before the work: a sweep used
    // to simulate and store every point, then fail on the report.
    const std::string dir = freshStoreDir("json_unwritable");
    const std::string json = dir + "/missing/report.json";
    EXPECT_TRUE(failsWith(invoke({"sweep", "--fast", "--sweep",
                                  "core.mem.dram_latency=217,277", "--store",
                                  dir.c_str(), "--json", json.c_str()}),
                          "cannot open --json file"));
    EXPECT_EQ(ResultStore(dir).countEntries(), 0u);
}

// --- sweep + persistent store -----------------------------------------

TEST(Driver, SweepResumeRecomputesOnlyTheMissingPoints)
{
    // The interrupted-sweep scenario: shard 0/2 completes half the
    // product and dies; the full --resume run must simulate only the
    // other half, then a second --resume run must simulate nothing.
    const std::string dir = freshStoreDir("store_resume");
    const std::string half = tempPath("resume_half.json");
    const std::string full_a = tempPath("resume_full_a.json");
    const std::string full_b = tempPath("resume_full_b.json");
    // Axis values unique to this test so the process-wide result
    // cache is cold for every point.
    const char *axis = "core.mem.dram_latency=203,263";

    ASSERT_EQ(invoke({"sweep", "--fast", "--sweep", axis, "--sweep",
                      "core.walker_port_gap=1,3", "--store",
                      dir.c_str(), "--shard", "0/2",
                      ("--json=" + half).c_str()})
                  .exitCode,
              0);
    const JsonValue half_report = readReport(half);
    EXPECT_EQ(half_report.find("data")
                  ->find("store")
                  ->find("recomputed")
                  ->asInt(),
              2);

    // A fresh process would start with an empty in-process cache; the
    // clear makes the in-process invocation equivalent.
    ResultCache::process().clear();
    const Invocation resumed = invokeWithInput(
        {"sweep", "--fast", "--sweep", axis, "--sweep",
         "core.walker_port_gap=1,3", "--store", dir.c_str(), "--resume",
         ("--json=" + full_a).c_str()},
        "");
    ASSERT_EQ(resumed.exitCode, 0);
    EXPECT_NE(resumed.out.find("store: 2 stored, 2 recomputed"),
              std::string::npos)
        << resumed.out;
    const JsonValue report_a = readReport(full_a);
    const JsonValue *store_a = report_a.find("data")->find("store");
    ASSERT_NE(store_a, nullptr);
    EXPECT_EQ(store_a->find("stored")->asInt(), 2);
    EXPECT_EQ(store_a->find("recomputed")->asInt(), 2);
    EXPECT_EQ(store_a->find("entries")->asInt(), 4);

    ResultCache::process().clear();
    const Invocation second = invokeWithInput(
        {"sweep", "--fast", "--sweep", axis, "--sweep",
         "core.walker_port_gap=1,3", "--store", dir.c_str(), "--resume",
         ("--json=" + full_b).c_str()},
        "");
    ASSERT_EQ(second.exitCode, 0);
    const JsonValue report_b = readReport(full_b);
    const JsonValue *store_b = report_b.find("data")->find("store");
    EXPECT_EQ(store_b->find("stored")->asInt(), 4);
    EXPECT_EQ(store_b->find("recomputed")->asInt(), 0);
    EXPECT_EQ(store_b->find("presentBefore")->asInt(), 4);
    EXPECT_EQ(store_b->find("quarantined")->asInt(), 0);

    // Store-served and freshly-simulated runs publish byte-identical
    // point data.
    EXPECT_EQ(report_a.find("data")->find("points")->dump(),
              report_b.find("data")->find("points")->dump());
    std::remove(half.c_str());
    std::remove(full_a.c_str());
    std::remove(full_b.c_str());
}

TEST(Driver, SweepResumeRewarmsASupersededCheckpointArea)
{
    // A store whose ckpt/ area an older checkpoint format wrote: its
    // meta pins v1 and its images are named -ckpt-v1.bin. With the
    // result entries gone, --resume recomputes every point; the area
    // is re-pinned, the old images miss, and both pair-mixes re-warm.
    namespace fs = std::filesystem;
    const std::string dir = freshStoreDir("store_superseded_ckpt");
    std::vector<const char *> args = {"sweep", "--fast", "--sweep",
                                      "core.mem.dram_latency=221,281",
                                      "--store", dir.c_str()};
    const Invocation first = invokeWithInput(args, "");
    ASSERT_EQ(first.exitCode, 0);

    const std::string live_suffix =
        "-ckpt-v" + std::to_string(ckpt_format_version) + ".bin";
    std::vector<fs::path> files;
    for (const fs::directory_entry &e :
         fs::recursive_directory_iterator(dir))
        if (e.is_regular_file() &&
            e.path().parent_path().filename().string().size() == 2)
            files.push_back(e.path());
    std::vector<fs::path> old_images;
    for (const fs::path &path : files) {
        const std::string name = path.filename().string();
        if (name.ends_with(live_suffix)) {
            old_images.push_back(
                path.parent_path() /
                (name.substr(0, name.size() - live_suffix.size()) +
                 "-ckpt-v1.bin"));
            fs::rename(path, old_images.back());
        } else {
            fs::remove(path);
        }
    }
    ASSERT_EQ(old_images.size(), 2u);
    std::ofstream(dir + "/ckpt/ckpt_meta.json", std::ios::trunc)
        << "{\n  \"ckptVersion\": 1,\n  \"schemaVersion\": "
        << config_schema_version << "\n}\n";

    ResultCache::process().clear();
    args.push_back("--resume");
    const Invocation resumed = invokeWithInput(args, "");
    ASSERT_EQ(resumed.exitCode, 0);
    EXPECT_EQ(resumed.out, first.out);
    EXPECT_NE(resumed.err.find("checkpoints: 2 warmed"), std::string::npos)
        << resumed.err;
    std::size_t live = 0;
    for (const fs::directory_entry &e :
         fs::recursive_directory_iterator(dir + "/ckpt"))
        live += e.path().filename().string().ends_with(live_suffix);
    EXPECT_EQ(live, 2u);
    for (const fs::path &path : old_images)
        EXPECT_TRUE(fs::exists(path)) << path;
}

TEST(Driver, ShardsPartitionTheProductWithIdenticalFingerprints)
{
    const std::string full = tempPath("shard_full.json");
    const std::string s0 = tempPath("shard_0.json");
    const std::string s1 = tempPath("shard_1.json");
    const char *axis = "core.mem.dram_latency=205,265";

    ASSERT_EQ(invoke({"sweep", "--fast", "--sweep", axis, "--sweep",
                      "core.walker_port_gap=0,2",
                      ("--json=" + full).c_str()})
                  .exitCode,
              0);
    ASSERT_EQ(invoke({"sweep", "--fast", "--sweep", axis, "--sweep",
                      "core.walker_port_gap=0,2", "--shard", "0/2",
                      ("--json=" + s0).c_str()})
                  .exitCode,
              0);
    ASSERT_EQ(invoke({"sweep", "--fast", "--sweep", axis, "--sweep",
                      "core.walker_port_gap=0,2", "--shard", "1/2",
                      ("--json=" + s1).c_str()})
                  .exitCode,
              0);

    const auto fingerprints = [](const JsonValue &report) {
        std::vector<std::string> fps;
        for (const JsonValue &pt :
             report.find("data")->find("points")->elements())
            fps.push_back(pt.find("fingerprint")->asString());
        return fps;
    };
    const JsonValue full_report = readReport(full);
    std::vector<std::string> expect = fingerprints(full_report);
    ASSERT_EQ(expect.size(), 4u);

    const JsonValue report_0 = readReport(s0);
    const JsonValue report_1 = readReport(s1);
    std::vector<std::string> got = fingerprints(report_0);
    const std::vector<std::string> half_1 = fingerprints(report_1);
    got.insert(got.end(), half_1.begin(), half_1.end());
    EXPECT_EQ(got.size(), 4u);

    // Exact partition: same multiset of per-point fingerprints as the
    // unsharded product, no overlap, no gap.
    std::sort(expect.begin(), expect.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(expect, got);

    const JsonValue *shard = report_0.find("data")->find("shard");
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(shard->find("index")->asInt(), 0);
    EXPECT_EQ(shard->find("count")->asInt(), 2);
    EXPECT_EQ(shard->find("pointsTotal")->asInt(), 4);
    EXPECT_EQ(shard->find("pointsKept")->asInt(), 2);
    // The unsharded report has no shard member at all.
    EXPECT_EQ(full_report.find("data")->find("shard"), nullptr);
    std::remove(full.c_str());
    std::remove(s0.c_str());
    std::remove(s1.c_str());
}

TEST(Driver, ConcurrentShardInvocationsShareOneStore)
{
    const std::string dir = freshStoreDir("store_concurrent");
    const std::string s0 = tempPath("conc_0.json");
    const std::string s1 = tempPath("conc_1.json");
    const char *axis = "core.mem.dram_latency=207,267";

    auto runShard = [&](const char *shard, const std::string &json) {
        return invokeWithInput(
            {"sweep", "--fast", "--sweep", axis, "--sweep",
             "core.walker_port_gap=1,3", "--store", dir.c_str(),
             "--shard", shard, ("--json=" + json).c_str()},
            "");
    };
    Invocation r0, r1;
    std::thread t0([&] { r0 = runShard("0/2", s0); });
    std::thread t1([&] { r1 = runShard("1/2", s1); });
    t0.join();
    t1.join();
    ASSERT_EQ(r0.exitCode, 0);
    ASSERT_EQ(r1.exitCode, 0);

    // Both writers account for their half of the product...
    const JsonValue report_0 = readReport(s0);
    const JsonValue report_1 = readReport(s1);
    EXPECT_EQ(report_0.find("data")
                      ->find("store")
                      ->find("recomputed")
                      ->asInt() +
                  report_1.find("data")
                      ->find("store")
                      ->find("recomputed")
                      ->asInt(),
              4);

    // ...and zero points were lost or duplicated. Asserted after both
    // shards have fully joined (a shard's own report may legitimately
    // be written while its sibling is still publishing): a full resume
    // pass sees all four points on disk and recomputes nothing.
    const std::string full = tempPath("conc_full.json");
    const Invocation rf = invokeWithInput(
        {"sweep", "--fast", "--sweep", axis, "--sweep",
         "core.walker_port_gap=1,3", "--store", dir.c_str(), "--resume",
         ("--json=" + full).c_str()},
        "");
    ASSERT_EQ(rf.exitCode, 0);
    const JsonValue report_full = readReport(full);
    EXPECT_EQ(
        report_full.find("data")->find("store")->find("entries")->asInt(),
        4);
    EXPECT_EQ(report_full.find("data")
                  ->find("store")
                  ->find("recomputed")
                  ->asInt(),
              0);
    std::remove(full.c_str());
    std::remove(s0.c_str());
    std::remove(s1.c_str());
}

TEST(DriverDeath, ResumeFromAForeignSchemaVersionIsRefused)
{
    const std::string dir = freshStoreDir("store_foreign");
    ASSERT_EQ(invoke({"sweep", "--fast", "--sweep",
                      "core.mem.dram_latency=209,269", "--store",
                      dir.c_str()})
                  .exitCode,
              0);
    // Forge a store written under a different config schema.
    {
        std::ofstream os(dir + "/store_meta.json", std::ios::trunc);
        os << "{\n  \"storeVersion\": 1,\n  \"schemaVersion\": 99\n}\n";
    }
    EXPECT_TRUE(failsWith(invoke({"sweep", "--fast", "--sweep",
                                  "core.mem.dram_latency=209,269", "--store",
                                  dir.c_str(), "--resume"}),
                          "schema version"));
}

// --- serve -------------------------------------------------------------

TEST(Driver, ServeAnswersFingerprintAndStoreQueries)
{
    const std::string dir = freshStoreDir("serve_store");
    ASSERT_EQ(invoke({"sweep", "--fast", "--sweep",
                      "core.mem.dram_latency=211,271", "--store",
                      dir.c_str()})
                  .exitCode,
              0);

    // The config fingerprint of a known override set, computed out of
    // band, must match what the server answers.
    ExpConfig expect_config = ExpConfig::fast();
    std::string expect_tag;
    {
        ConfigTree tree(expect_config);
        tree.set("core.mem.dram_latency", "211");
        tree.stampTag();
        expect_tag = expect_config.configTag;
    }

    const Invocation serve = invokeWithInput(
        {"serve", "--fast", "--store", dir.c_str()},
        "fingerprint core.mem.dram_latency=211\n"
        "stat\n"
        "get 0123456789abcdef\n"
        "get not-a-fingerprint\n"
        "fingerprint core.mem.dram_latencee=211\n"
        "frobnicate\n"
        "fingerprint core.lmq_entries=abc\n"
        "fingerprint core.lmq_entries=99\n"
        "fingerprint core.balancer.action=explode\n"
        "fingerprint core.decode_width=4\n"
        "fingerprint workload.trace=no_such.trace\n"
        "stat\n"
        "quit\n");
    ASSERT_EQ(serve.exitCode, 0);

    std::istringstream lines(serve.out);
    std::string line;

    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"fingerprint\": \"" + expect_tag + "\""),
              std::string::npos)
        << line;

    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"entries\": 2"), std::string::npos) << line;
    EXPECT_NE(line.find("\"schemaVersion\": 1"), std::string::npos)
        << line;

    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("no stored result"), std::string::npos) << line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("no stored result"), std::string::npos) << line;

    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("unknown config key"), std::string::npos)
        << line;
    EXPECT_NE(line.find("did you mean"), std::string::npos) << line;

    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("unknown command"), std::string::npos) << line;

    // A malformed, out-of-range or misspelled value is an error reply
    // naming the key, and the session keeps serving.
    for (const char *expect :
         {"core.lmq_entries' expects an integer, got 'abc'",
          "core.lmq_entries' = 99 out of range [1, 64]",
          "core.balancer.action' expects 'stall' or 'flush', got "
          "'explode'"}) {
        ASSERT_TRUE(std::getline(lines, line));
        EXPECT_EQ(line.rfind("{\"error\": ", 0), 0u) << line;
        EXPECT_NE(line.find(expect), std::string::npos) << line;
    }

    // So is an override that breaks a cross-field invariant (the
    // default group size no longer fits the decode width).
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.rfind("{\"error\": ", 0), 0u) << line;
    EXPECT_NE(line.find("groupSize 5 must be in [1, decodeWidth]"),
              std::string::npos)
        << line;

    // And so is a trace path whose header cannot be read.
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "{\"error\": \"cannot open trace 'no_such.trace'\"}");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"entries\": 2"), std::string::npos) << line;

    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"ok\": true"), std::string::npos) << line;

    // Every reply is one line of JSON; nothing after quit.
    EXPECT_FALSE(std::getline(lines, line)) << line;
}

TEST(Driver, ServeReturnsStoredDocumentsVerbatim)
{
    const std::string dir = freshStoreDir("serve_get");
    // Seed the store out of band with a known job.
    FameParams fame;
    fame.minRepetitions = 3;
    fame.warmupRepetitions = 1;
    fame.maiv = 0.05;
    fame.warmupTolerance = 0.25;
    const SimJob job = SimJob::famePair(
        ProgramSpec::ubench(UbenchId::CpuInt, 0.5),
        ProgramSpec::ubench(UbenchId::CpuInt, 0.5), 3, 5, CoreParams{},
        fame);
    const std::string fp = ResultStore::fingerprintHex(job);
    {
        ResultStore store(dir);
        StoreProvenance prov;
        prov.seed = 42;
        store.put(job, job.execute(), prov);
    }

    const Invocation serve = invokeWithInput(
        {"serve", "--fast", "--store", dir.c_str()},
        "get " + fp + "\nquit\n");
    ASSERT_EQ(serve.exitCode, 0);
    std::istringstream lines(serve.out);
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"fingerprint\": \"" + fp + "\""),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"seed\": 42"), std::string::npos) << line;
    // The reply embeds the full result document on one line.
    const JsonValue doc = parseJson(line);
    EXPECT_EQ(doc.find("jobKey")->asString(), job.key());
    ASSERT_NE(doc.find("result"), nullptr);
    EXPECT_EQ(doc.find("result")->find("kind")->asString(), "fame");
}

TEST(DriverDeath, ServeRequiresAStore)
{
    EXPECT_TRUE(failsWith(invoke({"serve", "--fast"}),
                          "serve requires --store"));
}

TEST(Driver, ServeAnswersMultiGetAndMget)
{
    const std::string dir = freshStoreDir("serve_mget");
    FameParams fame;
    fame.minRepetitions = 3;
    fame.warmupRepetitions = 1;
    fame.maiv = 0.05;
    fame.warmupTolerance = 0.25;
    const SimJob job_a = SimJob::famePair(
        ProgramSpec::ubench(UbenchId::CpuInt, 0.5),
        ProgramSpec::ubench(UbenchId::CpuInt, 0.5), 2, 6, CoreParams{},
        fame);
    const SimJob job_b = SimJob::famePair(
        ProgramSpec::ubench(UbenchId::CpuInt, 0.5),
        ProgramSpec::ubench(UbenchId::CpuInt, 0.5), 6, 2, CoreParams{},
        fame);
    const std::string fp_a = ResultStore::fingerprintHex(job_a);
    const std::string fp_b = ResultStore::fingerprintHex(job_b);
    {
        ResultStore store(dir);
        store.put(job_a, job_a.execute(), StoreProvenance{});
        store.put(job_b, job_b.execute(), StoreProvenance{});
    }

    const Invocation serve = invokeWithInput(
        {"serve", "--fast", "--store", dir.c_str()},
        "get " + fp_a + " " + fp_b + " 0123456789abcdef\n" +
            "mget " + fp_a + " 0123456789abcdef\n" + "mget\nstat\nquit\n");
    ASSERT_EQ(serve.exitCode, 0);
    std::istringstream lines(serve.out);
    std::string line;

    // Multi-get: one reply line per fingerprint, in request order,
    // with misses as inline error lines that don't end the batch.
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"fingerprint\": \"" + fp_a + "\""),
              std::string::npos)
        << line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"fingerprint\": \"" + fp_b + "\""),
              std::string::npos)
        << line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("no stored result"), std::string::npos) << line;

    // mget: exactly one reply line; "results" parallels the request.
    ASSERT_TRUE(std::getline(lines, line));
    {
        const JsonValue reply = parseJson(line);
        const JsonValue *results = reply.find("results");
        ASSERT_NE(results, nullptr);
        ASSERT_TRUE(results->isArray());
        ASSERT_EQ(results->elements().size(), 2u);
        EXPECT_EQ(
            results->elements()[0].find("fingerprint")->asString(),
            fp_a);
        ASSERT_NE(results->elements()[1].find("error"), nullptr);
    }

    // Zero fingerprints is a usage error.
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("mget expects"), std::string::npos) << line;

    // Both lookup shapes are counted: 3 documents served, 2 misses.
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"hits\": 3,"), std::string::npos) << line;
    EXPECT_NE(line.find("\"misses\": 2,"), std::string::npos) << line;

    // Then the clean shutdown.
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"ok\": true"), std::string::npos) << line;
    EXPECT_FALSE(std::getline(lines, line)) << line;
}

// --- store-gc ----------------------------------------------------------

TEST(Driver, StoreGcReclaimsDeadFilesOnlyOnApply)
{
    const std::string dir = freshStoreDir("store_gc");
    ASSERT_EQ(invoke({"sweep", "--fast", "--sweep",
                      "core.mem.dram_latency=215,275", "--store",
                      dir.c_str()})
                  .exitCode,
              0);

    // Plant every flavor of garbage next to the live entries, in the
    // result area and in its ckpt/ checkpoint area.
    namespace fs = std::filesystem;
    const auto first_shard = [](const std::string &root) {
        for (const fs::directory_entry &e : fs::directory_iterator(root))
            if (e.is_directory() && e.path().filename().string().size() == 2)
                return e.path().string();
        return std::string();
    };
    const std::string shard = first_shard(dir);
    const std::string ckpt_shard = first_shard(dir + "/ckpt");
    ASSERT_FALSE(shard.empty());
    ASSERT_FALSE(ckpt_shard.empty());
    std::vector<std::string> live_ckpts;
    for (const fs::directory_entry &e :
         fs::recursive_directory_iterator(dir + "/ckpt"))
        if (e.path().extension() == ".bin")
            live_ckpts.push_back(e.path().string());
    ASSERT_EQ(live_ckpts.size(), 2u);
    const std::vector<std::string> garbage = {
        shard + "/deadbeefdeadbeef-v1.json.bad",
        shard + "/feedfacefeedface-v1.json.tmp.7",
        shard + "/0123456789abcdef-v0.json",
        ckpt_shard + "/0123456789abcdef-ckpt-v0.bin",
        ckpt_shard + "/0123456789abcdef-ckpt-v1.bin",
        ckpt_shard + "/0123456789abcdef-ckpt-v2.bin",
        ckpt_shard + "/feedfacefeedface-ckpt-v1.bin.tmp.7",
        ckpt_shard + "/deadbeefdeadbeef-ckpt-v1.bin.bad",
    };
    for (const std::string &path : garbage)
        std::ofstream(path) << "junk\n";

    // Dry run (the default): candidates are listed, nothing deleted.
    const Invocation dry =
        invoke({"store-gc", "--store", dir.c_str()});
    ASSERT_EQ(dry.exitCode, 0);
    EXPECT_NE(dry.out.find("quarantined"), std::string::npos);
    EXPECT_NE(dry.out.find("orphan temp"), std::string::npos);
    EXPECT_NE(dry.out.find("superseded result schema"),
              std::string::npos);
    EXPECT_NE(dry.out.find("superseded checkpoint format"),
              std::string::npos);
    for (const char *old : {"0123456789abcdef-ckpt-v1.bin (superseded "
                            "checkpoint format",
                            "0123456789abcdef-ckpt-v2.bin (superseded "
                            "checkpoint format"})
        EXPECT_NE(dry.out.find(old), std::string::npos) << dry.out;
    EXPECT_NE(dry.out.find("dry run"), std::string::npos);
    for (const std::string &path : garbage) {
        std::ifstream is(path);
        EXPECT_TRUE(is.good()) << path;
    }

    // Apply: the garbage goes, the live entries and meta stay.
    const std::string gc_json = tempPath("store_gc.json");
    const Invocation applied =
        invoke({"store-gc", "--store", dir.c_str(), "--apply",
                ("--json=" + gc_json).c_str()});
    ASSERT_EQ(applied.exitCode, 0);
    for (const std::string &path : garbage)
        EXPECT_FALSE(fs::exists(path)) << path;
    for (const std::string &path : live_ckpts)
        EXPECT_TRUE(fs::exists(path)) << path;
    EXPECT_TRUE(fs::exists(dir + "/ckpt/ckpt_meta.json"));
    {
        EXPECT_TRUE(fs::exists(dir + "/store_meta.json"));
        ResultStore reopened(dir);
        EXPECT_EQ(reopened.countEntries(), 2u);
    }
    const JsonValue report = readReport(gc_json);
    EXPECT_EQ(report.find("experiment")->asString(), "store-gc");
    EXPECT_TRUE(report.find("applied")->asBool());
    EXPECT_EQ(report.find("candidates")->asInt(), 8);
    EXPECT_EQ(report.find("removed")->asInt(), 8);
    EXPECT_GT(report.find("bytesReclaimed")->asInt(), 0);

    // A clean store has nothing to collect.
    const Invocation clean =
        invoke({"store-gc", "--store", dir.c_str()});
    ASSERT_EQ(clean.exitCode, 0);
    EXPECT_NE(clean.out.find("0 candidates"), std::string::npos);
    std::remove(gc_json.c_str());
}

TEST(Driver, StoreGcDoesNotFollowSymlinksOutOfTheStore)
{
    // A link back to the store and a link out of it: following either
    // would list files twice (or forever) and let --apply delete a
    // file the store does not own.
    namespace fs = std::filesystem;
    const std::string root = freshStoreDir("store_gc_links");
    const std::string dir = root + "/store";
    const std::string victim = root + "/outside/victim.bad";
    fs::create_directories(dir);
    fs::create_directories(root + "/outside");
    std::ofstream(dir + "/a.bad") << "junk\n";
    std::ofstream(victim) << "junk\n";
    fs::create_directory_symlink(".", dir + "/loop");
    fs::create_directory_symlink("../outside", dir + "/link");

    const Invocation dry = invoke({"store-gc", "--store", dir.c_str()});
    ASSERT_EQ(dry.exitCode, 0);
    EXPECT_NE(dry.out.find("store-gc: 1 candidate,"), std::string::npos)
        << dry.out;

    const Invocation applied =
        invoke({"store-gc", "--store", dir.c_str(), "--apply"});
    EXPECT_EQ(applied.exitCode, 0) << applied.out;
    EXPECT_FALSE(fs::exists(dir + "/a.bad"));
    EXPECT_TRUE(fs::exists(victim));
}

TEST(DriverDeath, StoreGcRequiresAStore)
{
    EXPECT_TRUE(failsWith(invoke({"store-gc"}), "store-gc requires --store"));
}

TEST(Driver, StorePathsWithMissingParentsAreCreated)
{
    // --store is "created when absent" on every path, including the
    // ones that open no checkpoint area first.
    const std::string root = freshStoreDir("store_nested");
    const std::string swept = root + "/sweep/a/b";
    ASSERT_EQ(invoke({"sweep", "--fast", "--no-checkpoint", "--sweep",
                      "core.mem.dram_latency=213,273", "--store",
                      swept.c_str()})
                  .exitCode,
              0);
    EXPECT_EQ(ResultStore(swept).countEntries(), 2u);

    const std::string served = root + "/serve/a/b";
    const Invocation serve = invokeWithInput(
        {"serve", "--fast", "--store", served.c_str()}, "stat\n");
    ASSERT_EQ(serve.exitCode, 0);
    EXPECT_NE(serve.out.find("\"entries\": 0"), std::string::npos)
        << serve.out;
    EXPECT_TRUE(std::filesystem::exists(served + "/store_meta.json"));
}

// --- trace -------------------------------------------------------------

TEST(Driver, TraceCheckTreatsAMissingFileAsAMiss)
{
    const std::string dir = freshStoreDir("trace_check");
    std::filesystem::create_directories(dir);
    const std::string missing = dir + "/missing.trace";
    const Invocation miss = invoke({"trace", "check", missing.c_str()});
    EXPECT_EQ(miss.exitCode, 1);
    EXPECT_NE(miss.err.find("cannot open trace"), std::string::npos)
        << miss.err;
    EXPECT_FALSE(std::filesystem::exists(missing + ".bad"));

    // A corrupt file is still quarantined.
    const std::string broken = dir + "/broken.trace";
    std::ofstream(broken) << "garbage\n";
    EXPECT_EQ(invoke({"trace", "check", broken.c_str()}).exitCode, 1);
    EXPECT_FALSE(std::filesystem::exists(broken));
    EXPECT_TRUE(std::filesystem::exists(broken + ".bad"));
}

TEST(DriverDeath, TraceVerbsRejectUnknownFlags)
{
    const std::string dir = freshStoreDir("trace_flags");
    std::filesystem::create_directories(dir);
    const std::string trace = dir + "/t.trace";
    ASSERT_EQ(invoke({"trace", "dump", "--executions", "2", "--out",
                      trace.c_str()})
                  .exitCode,
              0);
    EXPECT_TRUE(failsWith(invoke({"trace", "info", trace.c_str(), "--bogus"}),
                          "unknown flag '--bogus'"));
    EXPECT_TRUE(failsWith(invoke({"trace", "check", trace.c_str(), "--bogus"}),
                          "unknown flag '--bogus'"));
}

/**
 * A trace rewritten while a sweep replays it fails the run: the rewrite
 * lands once the first point is stored, so a later point's build finds
 * other content under the keyed path, and the batch stops there.
 */
TEST(DriverDeath, TraceRewrittenMidSweepFailsTheRun)
{
    const std::string dir = freshStoreDir("trace_rewritten");
    std::filesystem::create_directories(dir);
    const std::string trace = dir + "/t.trace";
    const std::string store = dir + "/store";
    ASSERT_EQ(invoke({"trace", "dump", "--scale", "0.37", "--out",
                      trace.c_str()})
                  .exitCode,
              0);
    auto storedAny = [&store] {
        std::error_code ec;
        for (auto it = std::filesystem::recursive_directory_iterator(store,
                                                                     ec);
             !ec && it != std::filesystem::recursive_directory_iterator();
             it.increment(ec)) {
            if (classifyArtifactFile(it->path().filename().string(),
                                     ResultStore::layout()) ==
                ArtifactFile::Live)
                return true;
        }
        return false;
    };
    std::atomic<bool> done{false};
    std::thread rewriter([&] {
        while (!done.load() && !storedAny())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        invoke({"trace", "dump", "--scale", "0.41", "--out", trace.c_str()});
    });
    const Invocation run = invoke(
        {"sweep", "--fast", "--jobs=1", "--set",
         ("workload.trace=" + trace).c_str(), "--store", store.c_str(),
         "--sweep",
         "core.mem.dram_latency=201,202,203,204,205,206,207,208,209,210,"
         "211,212,213,214,215,216"});
    done = true;
    rewriter.join();
    EXPECT_TRUE(
        failsWith(run, "^fatal: trace '.*' changed since it was keyed"));
    EXPECT_EQ(run.out, "");
}

/**
 * The trace CLI end to end for one benchmark: dump, info and check a
 * trace; replay it through `run` byte-identical to the generator; and
 * store a sweep point and its trace twin as two distinct entries. The
 * dump scale matches ExpConfig::fast()'s ubench scale, since a trace
 * records one concrete body.
 */
TEST(Driver, TraceDumpReplaysByteIdenticalAndStoresApart)
{
    const std::string dir = freshStoreDir("trace_cli");
    std::filesystem::create_directories(dir);
    const std::string trace = dir + "/cpu_int.trace";
    ASSERT_EQ(invoke({"trace", "dump", "--benchmark", "cpu_int", "--scale",
                      "0.5", "--executions", "200", "--out",
                      trace.c_str()})
                  .exitCode,
              0);
    const Invocation info = invoke({"trace", "info", trace.c_str()});
    ASSERT_EQ(info.exitCode, 0);
    EXPECT_NE(info.out.find("cpu_int"), std::string::npos) << info.out;
    const Invocation check = invoke({"trace", "check", trace.c_str()});
    ASSERT_EQ(check.exitCode, 0);
    EXPECT_NE(check.out.find(" ok ("), std::string::npos) << check.out;

    const std::string set_p = "workload.trace=" + trace;
    const std::string set_s = "workload.trace_secondary=" + trace;
    const Invocation synth = invoke(
        {"run", "--fast", "--primary", "cpu_int", "--secondary", "cpu_int"});
    const Invocation replay = invoke({"run", "--fast", "--set",
                                      set_p.c_str(), "--set",
                                      set_s.c_str()});
    ASSERT_EQ(synth.exitCode, 0);
    ASSERT_EQ(replay.exitCode, 0);
    EXPECT_EQ(replay.out, synth.out);

    // The trace's content fingerprint folds into the point's, so both
    // land in one store as separate entries. The axis value is unique
    // to this test so the process-wide result cache is cold.
    const std::string store = dir + "/store";
    const std::string j_synth = dir + "/sweep_synth.json";
    const std::string j_trace = dir + "/sweep_trace.json";
    const char *axis = "core.mem.dram_latency=219";
    ASSERT_EQ(invoke({"sweep", "--fast", "--store", store.c_str(),
                      "--sweep", axis, ("--json=" + j_synth).c_str()})
                  .exitCode,
              0);
    ASSERT_EQ(invoke({"sweep", "--fast", "--store", store.c_str(), "--set",
                      set_p.c_str(), "--sweep", axis,
                      ("--json=" + j_trace).c_str()})
                  .exitCode,
              0);
    const JsonValue r_synth = readReport(j_synth);
    const JsonValue r_trace = readReport(j_trace);
    const auto point_fp = [](const JsonValue &report) {
        return report.find("data")
            ->find("points")
            ->elements()
            .at(0)
            .find("fingerprint")
            ->asString();
    };
    EXPECT_NE(point_fp(r_synth), point_fp(r_trace));
    const JsonValue *counts = r_trace.find("data")->find("store");
    EXPECT_EQ(counts->find("entries")->asInt(), 2);
    EXPECT_EQ(counts->find("quarantined")->asInt(), 0);
    const JsonValue *primary =
        r_trace.find("provenance")->find("trace")->find("primary");
    ASSERT_NE(primary, nullptr);
    EXPECT_EQ(primary->find("name")->asString(), "cpu_int");
    const std::string fp = primary->find("fingerprint")->asString();
    EXPECT_EQ(fp.size(), 16u);
    EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"), std::string::npos)
        << fp;

    // A truncated copy fails `trace check` and is quarantined.
    const std::string broken = dir + "/broken.trace";
    std::filesystem::copy_file(trace, broken);
    std::filesystem::resize_file(broken, 2000);
    EXPECT_EQ(invoke({"trace", "check", broken.c_str()}).exitCode, 1);
    EXPECT_FALSE(std::filesystem::exists(broken));
    EXPECT_TRUE(std::filesystem::exists(broken + ".bad"));
}

// --- checkpointed experiments ------------------------------------------

/**
 * Driver-level acceptance of the checkpoint/fork path: table3 runs
 * that differ only in exp.seed share warm keys (the seed is
 * measurement provenance, not warm identity), so the second process
 * forks every warm-up from the first one's --checkpoint-dir — and both
 * print byte-identical tables to a cold (--no-checkpoint) run's.
 */
TEST(Driver, CheckpointedTable3IsByteIdenticalAndAccounted)
{
    const std::string ck = freshStoreDir("ck_table3");
    const std::string j1 = tempPath("ck_t3_1.json");
    const std::string j2 = tempPath("ck_t3_2.json");
    const std::string j3 = tempPath("ck_t3_3.json");

    const Invocation r1 =
        invoke({"table3", "--fast", "--seed", "1001",
                ("--checkpoint-dir=" + ck).c_str(),
                ("--json=" + j1).c_str()});
    const Invocation r2 =
        invoke({"table3", "--fast", "--seed", "1002",
                ("--checkpoint-dir=" + ck).c_str(),
                ("--json=" + j2).c_str()});
    const Invocation r3 =
        invoke({"table3", "--fast", "--seed", "1003", "--no-checkpoint",
                ("--json=" + j3).c_str()});
    ASSERT_EQ(r1.exitCode, 0);
    ASSERT_EQ(r2.exitCode, 0);
    ASSERT_EQ(r3.exitCode, 0);

    // Checkpointing must be invisible in the table output.
    EXPECT_EQ(r1.out, r3.out);
    EXPECT_EQ(r2.out, r3.out);

    // Accounting: run 1 warms everything; run 2 (fresh job keys, so no
    // in-process cache hits) forks every warm key from the store.
    const JsonValue report_1 = readReport(j1);
    const JsonValue report_2 = readReport(j2);
    const JsonValue report_3 = readReport(j3);
    const JsonValue *ck1 =
        report_1.find("provenance")->find("checkpoints");
    const JsonValue *ck2 =
        report_2.find("provenance")->find("checkpoints");
    const JsonValue *ck3 =
        report_3.find("provenance")->find("checkpoints");
    ASSERT_NE(ck1, nullptr);
    ASSERT_NE(ck2, nullptr);
    ASSERT_NE(ck3, nullptr);
    EXPECT_TRUE(ck1->find("enabled")->asBool());
    const std::int64_t warmed = ck1->find("warms")->asInt();
    EXPECT_GT(warmed, 0);
    EXPECT_EQ(ck1->find("storeForks")->asInt(), 0);
    EXPECT_EQ(ck1->find("storeWrites")->asInt(), warmed);
    EXPECT_EQ(ck2->find("warms")->asInt(), 0);
    EXPECT_EQ(ck2->find("storeForks")->asInt(), warmed);
    EXPECT_EQ(ck2->find("storeQuarantined")->asInt(), 0);
    EXPECT_FALSE(ck3->find("enabled")->asBool());

    // The accounting line goes to stderr, never stdout.
    EXPECT_NE(r1.err.find("checkpoints:"), std::string::npos);
    EXPECT_NE(r2.err.find("restored from store"), std::string::npos);
    EXPECT_EQ(r3.err.find("checkpoints:"), std::string::npos);
    EXPECT_EQ(r1.out.find("checkpoints:"), std::string::npos);

    std::remove(j1.c_str());
    std::remove(j2.c_str());
    std::remove(j3.c_str());
}

// --- run ---------------------------------------------------------------

TEST(Driver, RunRoutesCoreStatsThroughDumpJson)
{
    const std::string path = tempPath("run.json");
    const Invocation run =
        invoke({"run", "--fast", "--primary=cpu_int",
                "--secondary=cpu_int", "--prio-p=6", "--prio-s=2",
                ("--json=" + path).c_str()});
    ASSERT_EQ(run.exitCode, 0);
    EXPECT_NE(run.out.find("p5sim run: cpu_int + cpu_int at (6,2)"),
              std::string::npos);

    const JsonValue report = readReport(path);
    const JsonValue *data = report.find("data");
    EXPECT_EQ(data->find("primary")->asString(), "cpu_int");
    EXPECT_EQ(data->find("prioP")->asInt(), 6);
    EXPECT_TRUE(data->find("converged")->asBool());
    EXPECT_GT(data->find("ipcTotal")->asDouble(), 0.0);

    // The full per-core StatGroup rides along as one flat object.
    const JsonValue *stats = data->find("stats");
    ASSERT_NE(stats, nullptr);
    ASSERT_TRUE(stats->isObject());
    EXPECT_GT(stats->members().size(), 20u);
    bool has_cycle_counter = false;
    for (const auto &m : stats->members())
        if (m.second.isInt() || m.second.isDouble())
            has_cycle_counter = true;
    EXPECT_TRUE(has_cycle_counter);

    // The symbiosis sampler rides along too: per-thread series plus
    // the quantum provenance, so the dump alone supports offline
    // allocation replay (EXPERIMENTS.md).
    ASSERT_NE(data->find("symbiosisQuanta"), nullptr);
    ASSERT_NE(data->find("symbiosisQuantum"), nullptr);
    EXPECT_GT(data->find("symbiosisQuantum")->asInt(), 0);
    const JsonValue *series = stats->find("thread0.symbiosis.ipc");
    ASSERT_NE(series, nullptr);
    EXPECT_TRUE(series->isArray());
    std::remove(path.c_str());
}

TEST(Driver, RunSingleThreadMode)
{
    const Invocation run =
        invoke({"run", "--fast", "--primary=cpu_int",
                "--secondary=none"});
    EXPECT_EQ(run.exitCode, 0);
    EXPECT_NE(run.out.find("cpu_int + none"), std::string::npos);
}

TEST(Driver, RunIsIdenticalColdWarmedAndRestoredFromTheStore)
{
    const std::string ck = freshStoreDir("ck_run");
    const std::string ck_flag = "--checkpoint-dir=" + ck;
    const auto run = [](const std::string &mode, const std::string &json) {
        const std::string json_flag = "--json=" + json;
        return invoke({"run", "--fast", "--primary=cpu_int",
                       "--secondary=ldint_l2", "--prio-p=6", "--prio-s=2",
                       mode.c_str(), json_flag.c_str()});
    };
    const std::string paths[3] = {tempPath("run_cold.json"),
                                  tempPath("run_warm.json"),
                                  tempPath("run_restored.json")};
    const Invocation cold = run("--no-checkpoint", paths[0]);
    const Invocation warm = run(ck_flag, paths[1]); // warms, publishes
    const Invocation restored = run(ck_flag, paths[2]);
    ASSERT_EQ(cold.exitCode, 0);
    ASSERT_EQ(warm.exitCode, 0);
    ASSERT_EQ(restored.exitCode, 0);
    EXPECT_EQ(warm.out, cold.out);
    EXPECT_EQ(restored.out, cold.out);

    const JsonValue reports[3] = {readReport(paths[0]),
                                  readReport(paths[1]),
                                  readReport(paths[2])};
    const JsonValue *ck_warm =
        reports[1].find("provenance")->find("checkpoints");
    const JsonValue *ck_restored =
        reports[2].find("provenance")->find("checkpoints");
    EXPECT_EQ(ck_warm->find("warms")->asInt(), 1);
    EXPECT_EQ(ck_restored->find("warms")->asInt(), 0);
    EXPECT_EQ(ck_restored->find("storeForks")->asInt(), 1);

    const auto scalarStats = [](const JsonValue &report) {
        std::vector<std::pair<std::string, std::string>> scalars;
        for (const auto &m : report.find("data")->find("stats")->members())
            if (m.second.isNumber())
                scalars.emplace_back(m.first, m.second.dump());
        return scalars;
    };
    EXPECT_GT(scalarStats(reports[0]).size(), 20u);
    const JsonValue *base = reports[0].find("data");
    for (int i = 1; i < 3; ++i) {
        const JsonValue *data = reports[i].find("data");
        for (const char *member : {"totalCycles", "converged",
                                   "ipcPrimary", "ipcSecondary"})
            EXPECT_EQ(data->find(member)->dump(),
                      base->find(member)->dump())
                << member;
        // Every scalar stat; the symbiosis series differ by design (a
        // restored run samples no warm-up quanta).
        EXPECT_EQ(scalarStats(reports[i]), scalarStats(reports[0]));
    }
    for (const std::string &path : paths)
        std::remove(path.c_str());
}

// --- perf harness ------------------------------------------------------

/**
 * An abCase() arm with canned wall times: call k logs "<label>k",
 * advances the fake clock @p now by @p wall_ms[k] inside the timed
 * region and returns signature {42}, or {7} on call @p deviant_call.
 */
Arm
fakeArm(const std::string &label, std::vector<double> wall_ms,
        std::vector<std::string> &log, double &now, int deviant_call = -1)
{
    auto calls = std::make_shared<int>(0);
    return [=, &log, &now](const TimeWork &timed) {
        const int call = (*calls)++;
        log.push_back(label + std::to_string(call));
        timed([&] { now += wall_ms.at(static_cast<std::size_t>(call)); });
        ArmRun run;
        run.simCycles = 1000;
        run.signature = {call == deviant_call ? 7u : 42u};
        return run;
    };
}

TEST(PerfHarness, WarmsThenAlternatesAndReportsThePairedMedian)
{
    double now = 0;
    std::vector<std::string> log;
    std::ostringstream err;
    // B's call 0 is the discarded first-touch run.
    const AbResult r = abCase(
        "case", fakeArm("A", {10, 12, 9, 11}, log, now),
        fakeArm("B", {100, 5, 4, 6, 5}, log, now), 4, err,
        [&now] { return now; });

    EXPECT_EQ(log, (std::vector<std::string>{"B0", "A0", "B1", "B2", "A1",
                                             "A2", "B3", "B4", "A3"}));
    EXPECT_EQ(r.a.wallMs, 9);
    EXPECT_EQ(r.b.wallMs, 4);
    EXPECT_EQ(r.b.simCycles, 1000u);
    // Paired ratios 2, 3, 1.5, 2.2; the ratio of the minima would be
    // 9/4 = 2.25.
    EXPECT_DOUBLE_EQ(r.speedup, (2.0 + 2.2) / 2);
    // Sorted 1.5, 2, 2.2, 3: the quartiles at n/4 and 3n/4 are 2 and 3,
    // and the median's standard error is 1.2533 IQR/1.349 / sqrt(4).
    EXPECT_DOUBLE_EQ(r.stdErr, 1.2533 / 1.349 * (3.0 - 2.0) / 2);
    EXPECT_TRUE(r.identicalStats);
    EXPECT_EQ(err.str(), "case: 9 ms -> 4 ms (2.1x)\n");
}

TEST(PerfHarness, OneDeviantRepetitionFailsTheIdentityCheck)
{
    double now = 0;
    std::vector<std::string> log;
    std::ostringstream err;
    const AbResult r = abCase(
        "case", fakeArm("A", {10, 10, 10, 10}, log, now, 2),
        fakeArm("B", {5, 5, 5, 5, 5}, log, now), 4, err,
        [&now] { return now; });
    EXPECT_FALSE(r.identicalStats);
    EXPECT_EQ(err.str(), "case: 10 ms -> 5 ms (2x)  STATS DEVIATE\n");
}

TEST(PerfHarness, BuildInfoNamesTheCompilerBuildTypeAndIpo)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        writeBuildInfo(w);
    }
    const JsonValue build = parseJson(os.str());
    for (const char *member : {"compiler", "compilerVersion", "buildType"})
        EXPECT_FALSE(build.find(member)->asString().empty()) << member;
    EXPECT_TRUE(build.find("ipo")->isBool());
}

// --- alloc -------------------------------------------------------------

TEST(Driver, AllocComparesPoliciesOnAnNCoreChip)
{
    const std::string path_a = tempPath("alloc_a.json");
    const std::string path_b = tempPath("alloc_b.json");
    const auto run_once = [&](const std::string &path) {
        return invoke({"alloc", "--fast",
                       "--mix=cpu_int,ldint_mem,cpu_int,ldint_mem",
                       "--policies=pinned,random", "--cycles=40000",
                       "--set", "chip.num_cores=2", "--set",
                       "sched.quantum=5000",
                       ("--json=" + path).c_str()});
    };
    const Invocation run = run_once(path_a);
    ASSERT_EQ(run.exitCode, 0);
    EXPECT_NE(run.out.find("Allocation policies"), std::string::npos);

    const JsonValue report = readReport(path_a);
    EXPECT_EQ(report.find("experiment")->asString(), "alloc");
    const JsonValue *data = report.find("data");
    EXPECT_EQ(data->find("kind")->asString(), "alloc_study");
    EXPECT_EQ(data->find("numCores")->asInt(), 2);
    EXPECT_EQ(data->find("cycles")->asInt(), 40000);
    ASSERT_EQ(data->find("mix")->elements().size(), 4u);

    const JsonValue *outcomes = data->find("outcomes");
    ASSERT_EQ(outcomes->elements().size(), 2u);
    const JsonValue &pinned = outcomes->elements()[0];
    EXPECT_EQ(pinned.find("policy")->asString(), "pinned");
    EXPECT_EQ(pinned.find("migrations")->asInt(), 0);
    for (const JsonValue &out : outcomes->elements()) {
        EXPECT_EQ(out.find("checkViolations")->asInt(), 0);
        EXPECT_EQ(out.find("quanta")->asInt(), 8);
        EXPECT_GT(out.find("aggregateIpc")->asDouble(), 0.0);
        EXPECT_EQ(out.find("threadIpc")->elements().size(), 4u);
    }

    // Same config -> bit-identical study (reproducible from the
    // fingerprint alone).
    ASSERT_EQ(run_once(path_b).exitCode, 0);
    EXPECT_EQ(readReport(path_b).find("data")->dump(), data->dump());
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Driver, AllocSymbiosisSplitsTheDramStreamersAndBeatsPinned)
{
    // The mix is ordered so pinned co-schedules the two DRAM streamers
    // on one core; the symbiosis predictor must split them.
    const std::string path = tempPath("alloc_symbiosis.json");
    ASSERT_EQ(invoke({"alloc", "--fast",
                      "--mix=cpu_int,cpu_int,ldint_mem,ldint_mem",
                      "--policies=pinned,symbiosis", "--cycles=80000",
                      "--set", "chip.num_cores=2", "--set",
                      "sched.quantum=5000", ("--json=" + path).c_str()})
                  .exitCode,
              0);
    const JsonValue report = readReport(path);
    const JsonValue *outcomes = report.find("data")->find("outcomes");
    ASSERT_EQ(outcomes->elements().size(), 2u);
    const JsonValue &pinned = outcomes->elements()[0];
    const JsonValue &symbiosis = outcomes->elements()[1];
    EXPECT_EQ(pinned.find("policy")->asString(), "pinned");
    EXPECT_EQ(symbiosis.find("policy")->asString(), "symbiosis");
    for (const JsonValue &out : outcomes->elements()) {
        EXPECT_EQ(out.find("quanta")->asInt(), 16);
        EXPECT_EQ(out.find("checkViolations")->asInt(), 0);
    }
    EXPECT_EQ(pinned.find("migrations")->asInt(), 0);
    EXPECT_GT(symbiosis.find("aggregateIpc")->asDouble(),
              pinned.find("aggregateIpc")->asDouble());
    std::remove(path.c_str());
}

TEST(Driver, AllocRejectsBadInputs)
{
    EXPECT_TRUE(failsWith(invoke({"alloc", "--fast", "--policies=bogus"}),
                          "bogus"));
    EXPECT_TRUE(failsWith(invoke({"alloc", "--fast", "--mix=not_a_bench"}),
                          "not_a_bench"));
    EXPECT_TRUE(
        failsWith(invoke({"alloc", "--fast", "--cycles=0"}), "cycles"));
}

// --- config file / save-config round trip ------------------------------

TEST(Driver, SaveConfigThenLoadReproducesTheFingerprint)
{
    const std::string cfg = tempPath("saved_config.json");
    const std::string path_a = tempPath("cfgrt_a.json");
    const std::string path_b = tempPath("cfgrt_b.json");

    ASSERT_EQ(invoke({"table1", "--set", "core.lmq_entries=16", "--set",
                      "core.balancer.action=flush",
                      ("--save-config=" + cfg).c_str(),
                      ("--json=" + path_a).c_str()})
                  .exitCode,
              0);
    ASSERT_EQ(invoke({"table1", ("--config=" + cfg).c_str(),
                      ("--json=" + path_b).c_str()})
                  .exitCode,
              0);

    EXPECT_EQ(readReport(path_a)
                  .find("provenance")
                  ->find("fingerprint")
                  ->asString(),
              readReport(path_b)
                  .find("provenance")
                  ->find("fingerprint")
                  ->asString());
    std::remove(cfg.c_str());
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Driver, SavedConfigWithTheLargestSeedLoadsBack)
{
    // 2^64 - 1 is saved as a bare JSON integer too wide for int64; the
    // load must keep every digit rather than refuse a rounded double.
    const std::string cfg = tempPath("max_seed_config.json");
    const std::string path_a = tempPath("max_seed_a.json");
    const std::string path_b = tempPath("max_seed_b.json");
    ASSERT_EQ(invoke({"table1", "--set", "exp.seed=18446744073709551615",
                      ("--save-config=" + cfg).c_str(),
                      ("--json=" + path_a).c_str()})
                  .exitCode,
              0);
    ASSERT_EQ(invoke({"table1", ("--config=" + cfg).c_str(),
                      ("--json=" + path_b).c_str()})
                  .exitCode,
              0);
    const JsonValue a = readReport(path_a);
    const JsonValue b = readReport(path_b);
    EXPECT_EQ(b.find("provenance")->find("seed")->numberText(),
              "18446744073709551615");
    EXPECT_EQ(a.find("provenance")->find("fingerprint")->asString(),
              b.find("provenance")->find("fingerprint")->asString());
    std::remove(cfg.c_str());
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Driver, CsvModeEmitsCsvTables)
{
    const Invocation run = invoke({"table1", "--csv"});
    EXPECT_EQ(run.exitCode, 0);
    EXPECT_EQ(run.out.rfind("# ", 0), 0u)
        << "CSV mode starts with the '# <title>' comment line";
}

} // namespace
} // namespace p5
