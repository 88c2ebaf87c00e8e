#include "driver/driver.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "ckpt/ckpt.hh"
#include "ckpt/ckpt_manager.hh"
#include "common/artifact.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "config/config.hh"
#include "driver/commands.hh"
#include "fame/sim_runner.hh"
#include "program/trace.hh"

namespace p5 {

// --- output helpers ----------------------------------------------------

void
printTable(const DriverContext &ctx, const Table &table)
{
    std::ostream &os = *ctx.out;
    if (ctx.csv) {
        os << "# " << table.title() << '\n';
        table.printCsv(os);
    } else {
        table.printAscii(os);
    }
    os << '\n';
}

void
printTable(const DriverContext &ctx, const std::vector<Table> &tables)
{
    for (const Table &t : tables)
        printTable(ctx, t);
}

/**
 * The envelope keeps the legacy members (experiment, jobs, scale,
 * minRepetitions, maiv, cacheHits, cacheMisses) byte-compatible with
 * the pre-driver bench binaries and adds a "provenance" object —
 * schema version, config fingerprint, seed, traces, checkpoints and
 * sweep coordinates — before "data".
 */
void
writeReport(const DriverContext &ctx, const ExpConfig &config,
            const std::function<void(JsonWriter &)> &payload)
{
    if (ctx.jsonPath.empty())
        return;
    std::ofstream os(ctx.jsonPath);
    if (!os)
        fatal("cannot open --json file '%s'", ctx.jsonPath.c_str());

    const ResultCache &cache =
        config.cache ? *config.cache : ResultCache::process();
    JsonWriter w(os);
    w.beginObject();
    w.member("experiment", ctx.command);
    w.member("jobs",
             config.jobs ? config.jobs : SimRunner::defaultWorkers());
    w.member("scale", config.ubenchScale);
    w.member("minRepetitions", config.fame.minRepetitions);
    w.member("maiv", config.fame.maiv);
    w.member("cacheHits", cache.hits());
    w.member("cacheMisses", cache.misses());
    w.key("provenance");
    w.beginObject();
    w.member("schemaVersion", config_schema_version);
    w.member("fingerprint", config.configTag);
    w.member("seed", config.seed);
    // Trace-driven runs name their input: path is where the bytes
    // lived, fingerprint is what they were, name is what recorded them.
    if (!config.workloadTrace.empty() ||
        !config.workloadTraceSecondary.empty()) {
        auto traceBlock = [&w](const char *key, const std::string &path,
                               const std::string &fp) {
            if (path.empty())
                return;
            w.key(key);
            w.beginObject();
            w.member("path", path);
            w.member("name", readTraceHeader(path).name);
            w.member("fingerprint", fp);
            w.endObject();
        };
        w.key("trace");
        w.beginObject();
        traceBlock("primary", config.workloadTrace,
                   config.workloadTraceFp);
        traceBlock("secondary", config.workloadTraceSecondary,
                   config.workloadTraceSecondaryFp);
        w.endObject();
    }
    // Checkpoint accounting lives in provenance (and on stderr), never
    // in table output: a checkpointed run's stdout must stay
    // byte-identical to the cold run's.
    w.key("checkpoints");
    w.beginObject();
    w.member("enabled", config.checkpoints != nullptr);
    if (config.checkpoints) {
        const CkptManager &m = *config.checkpoints;
        w.member("warms", m.warms());
        w.member("memForks", m.memForks());
        w.member("storeForks", m.storeForks());
        if (const CkptStore *s = m.store()) {
            w.member("storeDir", s->dir());
            w.member("storeHits", s->hits());
            w.member("storeMisses", s->misses());
            w.member("storeWrites", s->writes());
            w.member("storeQuarantined", s->quarantined());
        }
    }
    w.endObject();
    w.key("sweep");
    w.beginObject();
    for (const auto &coord : ctx.sweep)
        w.member(coord.first, coord.second);
    w.endObject();
    w.endObject();
    w.key("data");
    payload(w);
    w.endObject();
}

namespace {

// --- flag groups -------------------------------------------------------

/** The flag groups a subcommand takes (Subcommand::groups bits). */
enum FlagGroup : unsigned
{
    /** Config, output and checkpoint flags of every simulating command. */
    Experiment = 1u << 0,
    Pair = 1u << 1,       ///< the FAME pair run and sweep simulate
    Alloc = 1u << 2,      ///< the workload alloc schedules
    Store = 1u << 3,      ///< a persistent result store
    Sweep = 1u << 4,      ///< sweep axes, resume and shards
    Gc = 1u << 5,         ///< store-gc's target and dry-run switch
    Perf = 1u << 6,       ///< perf's two reports
    TraceDump = 1u << 7,  ///< what trace dump records
    TraceCheck = 1u << 8, ///< trace check's quarantine switch
};

/** One flag; declared for every subcommand that takes its group. */
struct FlagSpec
{
    FlagGroup group;
    const char *name;
    const char *value; ///< default; nullptr declares a repeatable flag
    const char *help;
};

/** Every flag of every group, in --help order. */
constexpr FlagSpec flag_table[] = {
    {Experiment, "fast", "false",
     "reduced repetitions/benchmarks for a quick smoke run"},
    {Experiment, "config", "",
     "load configuration from this JSON file first"},
    {Experiment, "set", nullptr,
     "override one config key, e.g. --set core.decode_width=4 (after "
     "--config, --jobs and --seed; repeatable)"},
    {Experiment, "save-config", "",
     "write the effective configuration to this JSON file"},
    {Experiment, "seed", "0",
     "master seed folded into the config fingerprint"},
    {Experiment, "csv", "false", "emit CSV instead of ASCII tables"},
    {Experiment, "jobs", "0",
     "simulation worker threads (0 = hardware concurrency)"},
    {Experiment, "json", "",
     "also write machine-readable results to this file"},
    {Experiment, "checkpoint-dir", "",
     "persist warmed-state checkpoints in this directory so later "
     "processes fork instead of re-warming (created when absent; sweep "
     "defaults to <store>/ckpt)"},
    {Experiment, "no-checkpoint", "false",
     "warm every FAME job inline instead of sharing checkpointed warm "
     "state (stats are bit-identical; this only costs wall clock)"},
    {Pair, "primary", "cpu_int", "PThread micro-benchmark (paper name)"},
    {Pair, "secondary", "ldint_mem",
     "SThread micro-benchmark (paper name, or 'none' for single-thread "
     "mode)"},
    {Pair, "prio-p", "4", "PThread priority (0..7)"},
    {Pair, "prio-s", "4", "SThread priority (0..7)"},
    {Alloc, "mix",
     "cpu_int,cpu_int,cpu_int,cpu_int,"
     "ldint_mem,ldint_mem,ldint_mem,ldint_mem",
     "comma-separated micro-benchmark names; one runnable thread each"},
    {Alloc, "policies", "pinned,random,symbiosis",
     "comma-separated allocation policies to compare"},
    {Alloc, "cycles", "400000", "simulated chip cycles per policy run"},
    {Store, "store", "",
     "persistent content-addressed result store directory (created when "
     "absent)"},
    {Sweep, "sweep", nullptr,
     "one sweep axis, e.g. --sweep core.lmq_entries=4,8,16 (repeatable; "
     "the cartesian product of all axes runs)"},
    {Sweep, "resume", "false",
     "serve points already present in --store from disk instead of "
     "re-simulating them"},
    {Sweep, "shard", "",
     "i/N: run only every Nth point of the product starting at i "
     "(shards share one --store)"},
    {Gc, "store", "",
     "result-store directory to collect (its ckpt/ checkpoint area is "
     "scanned too)"},
    {Gc, "apply", "false", "actually delete (the default is a dry run)"},
    {Gc, "json", "", "also write the reclamation report to this file"},
    {Perf, "json", "", "write the fast-forward speedup report here"},
    {Perf, "profile-stages", "false",
     "print the per-stage wall-time breakdown instead"},
    {TraceDump, "benchmark", "cpu_int", "paper micro-benchmark to record"},
    {TraceDump, "scale", "1.0", "work multiplier per repetition"},
    {TraceDump, "executions", "8",
     "complete executions to record (replay wraps, so this bounds file "
     "size, not run length)"},
    {TraceDump, "out", "", "trace file to write (required)"},
    {TraceCheck, "keep", "false",
     "leave a corrupt trace in place instead of quarantining it to "
     "FILE.bad"},
};

// --- subcommands -------------------------------------------------------

/** One row of the subcommand table. */
struct Subcommand
{
    const char *name; ///< one word, or two for a verb ("trace dump")
    const char *help;
    CommandFn fn;
    unsigned groups;               ///< FlagGroup bits
    const char *operand = nullptr; ///< positional argument it takes
};

constexpr Subcommand subcommands[] = {
    {"table1", "paper Table 1: priorities, privilege, or-nop encodings",
     paperView<fixed<renderTable1>, asIs>, Experiment},
    {"table2", "paper Table 2: micro-benchmark loop bodies",
     paperView<fixed<renderTable2>, asIs>, Experiment},
    {"table3", "paper Table 3: ST IPC + pairwise SMT(4,4) matrix",
     paperView<runTable3, renderTable3>, Experiment},
    {"table4", "paper Table 4: FFT/LU pipeline timings",
     paperView<runTable4, renderTable4>, Experiment},
    {"fig2", "paper Figure 2: speedup at positive priority differences",
     paperView<runFig2, renderFig2>, Experiment},
    {"fig3", "paper Figure 3: slowdown at negative priority differences",
     paperView<runFig3, renderFig3>, Experiment},
    {"fig4", "paper Figure 4: total IPC w.r.t. the (4,4) baseline",
     paperView<runFig4, renderFig4>, Experiment},
    {"fig5", "paper Figure 5: SPEC case-study pairs",
     paperView<runFig5Pairs, renderFig5Pairs>, Experiment},
    {"fig6", "paper Figure 6: transparent execution",
     paperView<runFig6, renderFig6>, Experiment},
    {"ablation", "ablation studies of the simulator's design choices",
     cmdAblation, Experiment},
    {"run", "one FAME pair with a full per-core stats dump", cmdRun,
     Experiment | Pair},
    {"sweep", "cartesian config sweep fanned out as one job batch",
     cmdSweep, Experiment | Pair | Store | Sweep},
    {"alloc", "thread-to-core allocation policies on an N-core chip",
     cmdAlloc, Experiment | Alloc},
    {"serve", "answer fingerprint/result-store queries over stdin",
     cmdServe, Experiment | Store},
    {"store-gc", "reclaim dead files from a result-store directory",
     cmdStoreGc, Gc},
    {"perf", "simulator speedup report / per-stage profile", cmdPerf,
     Perf},
    {"trace dump", "record a micro-benchmark as a replayable trace",
     cmdTraceDump, TraceDump},
    {"trace info", "print a trace's header and content fingerprint",
     cmdTraceInfo, 0, "FILE"},
    {"trace check",
     "validate a trace's header, checksum and record bounds",
     cmdTraceCheck, TraceCheck, "FILE"},
};

std::string
globalUsage()
{
    std::ostringstream os;
    os << "usage: p5sim <subcommand> [flags]\n\n"
       << "subcommands:\n";
    for (const Subcommand &sub : subcommands) {
        os << "  ";
        os.width(13);
        os << std::left << sub.name;
        os << sub.help << '\n';
    }
    os << "\nRun 'p5sim <subcommand> --help' for the subcommand's "
          "flags.\n";
    return os.str();
}

/**
 * The row whose name's words lead @p argv (after the binary), with
 * @p words set to how many arguments the name took.
 */
const Subcommand *
findSubcommand(int argc, const char *const *argv, int &words)
{
    for (const Subcommand &sub : subcommands) {
        const std::string_view name = sub.name;
        words = 1 + static_cast<int>(
                        std::count(name.begin(), name.end(), ' '));
        if (words >= argc)
            continue;
        std::string typed = argv[1];
        for (int i = 2; i <= words; ++i) {
            typed += ' ';
            typed += argv[i];
        }
        if (typed == name)
            return &sub;
    }
    return nullptr;
}

/**
 * Build the effective ExpConfig from the parsed flags, in fixed
 * precedence order: defaults (or the --fast preset), then the --config
 * file, then --jobs and --seed, then --set overrides. Validates and
 * stamps the fingerprint into config.configTag.
 */
ExpConfig
buildConfig(const Cli &cli)
{
    ExpConfig config;
    if (cli.boolean("fast"))
        config = ExpConfig::fast();

    ConfigTree tree(config);
    if (cli.isSet("config"))
        tree.loadFile(cli.str("config"));
    if (cli.isSet("jobs"))
        tree.set("exp.jobs", cli.str("jobs"));
    if (cli.isSet("seed"))
        tree.set("exp.seed", cli.str("seed"));
    for (const std::string &assignment : cli.list("set"))
        tree.applyOverride(assignment);

    tree.validate();
    tree.stampTag();

    if (cli.isSet("save-config"))
        tree.saveFile(cli.str("save-config"));
    return config;
}

/**
 * fatal() now if a report could not be written to @p path, so a bad
 * --json path fails before the work rather than after it. Probes with
 * the open the report makes later, then removes a file it created.
 */
void
checkWritable(const std::string &path)
{
    const bool existed = fileExists(path);
    if (!std::ofstream(path, std::ios::app))
        fatal("cannot open --json file '%s'", path.c_str());
    if (!existed)
        std::remove(path.c_str());
}

/** driverMain's body: dispatch, flags, config and the subcommand. */
int
runCommand(int argc, const char *const *argv, std::ostream &out,
           std::ostream &err, std::istream &in)
{
    if (argc < 2) {
        err << globalUsage();
        return 1;
    }
    const std::string first = argv[1];
    if (first == "help" || first == "--help" || first == "-h") {
        out << globalUsage();
        return 0;
    }
    int words = 0;
    const Subcommand *sub = findSubcommand(argc, argv, words);
    if (!sub) {
        err << "p5sim: unknown subcommand '" << first << "'\n\n"
            << globalUsage();
        return 1;
    }

    DriverContext ctx;
    ctx.command = sub->name;
    ctx.out = &out;
    ctx.err = &err;
    ctx.in = &in;

    // The operand, if the row takes one, directly follows the name;
    // the flags follow it.
    int next = 1 + words;
    if (sub->operand && next < argc && argv[next][0] != '-')
        ctx.operand = argv[next++];

    Cli cli;
    for (const FlagSpec &flag : flag_table) {
        if (!(sub->groups & flag.group))
            continue;
        if (flag.value)
            cli.declare(flag.name, flag.value, flag.help);
        else
            cli.declareMulti(flag.name, flag.help);
    }
    std::vector<const char *> args;
    args.push_back(argv[0]);
    args.insert(args.end(), argv + next, argv + argc);
    cli.parse(static_cast<int>(args.size()), args.data());

    if (cli.helpRequested()) {
        std::string synopsis = "p5sim " + ctx.command;
        if (sub->operand)
            synopsis += std::string(" ") + sub->operand;
        out << cli.usage(synopsis);
        return 0;
    }
    if (sub->operand && ctx.operand.empty())
        fatal("p5sim %s requires a %s argument", sub->name, sub->operand);
    if (cli.declared("json")) {
        ctx.jsonPath = cli.str("json");
        if (!ctx.jsonPath.empty())
            checkWritable(ctx.jsonPath);
    }

    ExpConfig config;
    std::optional<CkptStore> ckpt_store;
    std::optional<CkptManager> ckpt_mgr;
    if (sub->groups & Experiment) {
        config = buildConfig(cli);
        ctx.csv = cli.boolean("csv");

        // Checkpoint/fork is on by default: jobs sharing a warm key
        // warm once and fork, which is invisible in the results
        // (bit-identical stats) and only saves wall clock.
        // --no-checkpoint restores inline warming; --checkpoint-dir
        // adds a persistent area so later *processes* fork too. A
        // sweep with --store and no explicit directory keeps its
        // checkpoints next to its results, under <store>/ckpt.
        if (!cli.boolean("no-checkpoint")) {
            std::string ckpt_dir = cli.str("checkpoint-dir");
            if (ckpt_dir.empty() && (sub->groups & Sweep) &&
                cli.isSet("store"))
                ckpt_dir = cli.str("store") + "/ckpt";
            ckpt_mgr.emplace();
            if (!ckpt_dir.empty()) {
                ckpt_store.emplace(ckpt_dir);
                ckpt_mgr->setStore(&*ckpt_store);
            }
            config.checkpoints = &*ckpt_mgr;
        }
    }

    const int rc = sub->fn(cli, ctx, config);

    // Accounting goes to stderr (and the --json provenance block),
    // never stdout: a checkpointed run's table output must stay
    // byte-identical to the cold run's.
    if (ckpt_mgr && (ckpt_mgr->warms() || ckpt_mgr->forks())) {
        err << "checkpoints: " << ckpt_mgr->warms() << " warmed, "
            << ckpt_mgr->memForks() << " forked in-memory, "
            << ckpt_mgr->storeForks() << " restored from store";
        if (ckpt_store)
            err << " (" << ckpt_store->dir() << ")";
        err << "\n";
    }
    return rc;
}

} // namespace

int
driverMain(int argc, const char *const *argv, std::ostream &out,
           std::ostream &err, std::istream &in)
{
    // The one place an error becomes an exit code.
    try {
        return runCommand(argc, argv, out, err, in);
    } catch (const Error &e) {
        err << "fatal: " << e.what() << "\n";
        return 1;
    }
}

} // namespace p5
