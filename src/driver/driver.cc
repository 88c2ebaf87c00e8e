#include "driver/driver.hh"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>

#include "ckpt/ckpt.hh"
#include "ckpt/ckpt_io.hh"
#include "ckpt/ckpt_manager.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "config/config.hh"
#include "core/chip.hh"
#include "core/smt_core.hh"
#include "exp/experiments.hh"
#include "exp/report.hh"
#include "fame/fame.hh"
#include "fame/sim_runner.hh"
#include "program/trace.hh"
#include "sched/alloc_engine.hh"
#include "sched/monitor.hh"
#include "sched/workload.hh"
#include "store/result_store.hh"
#include "ubench/ubench.hh"
#include "workloads/spec_proxy.hh"

namespace p5 {

namespace {

// --- output helpers ----------------------------------------------------

/** Print a table per the context's --csv preference. */
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
printTables(const DriverContext &ctx, const std::vector<Table> &tables)
{
    for (const Table &t : tables)
        printTable(ctx, t);
}

/**
 * When --json=FILE was given, write the report envelope around a
 * payload emitted under the "data" key. The envelope keeps the legacy
 * members (experiment, jobs, scale, minRepetitions, maiv, cacheHits,
 * cacheMisses) byte-compatible with the pre-driver bench binaries and
 * adds a "provenance" object — schema version, config fingerprint,
 * seed and sweep coordinates — before "data".
 */
void
writeReport(const DriverContext &ctx, const char *experiment,
            const ExpConfig &config,
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
    w.member("experiment", experiment);
    w.member("jobs",
             config.jobs ? config.jobs : ThreadPool::defaultWorkers());
    w.member("scale", config.ubenchScale);
    w.member("minRepetitions", config.fame.minRepetitions);
    w.member("maiv", config.fame.maiv);
    w.member("cacheHits", cache.hits());
    w.member("cacheMisses", cache.misses());
    w.key("provenance");
    w.beginObject();
    w.member("schemaVersion", config_schema_version);
    w.member("fingerprint", ctx.fingerprint);
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

// --- flag sets ---------------------------------------------------------

/** The experiment flags every data-producing subcommand shares. */
void
declareExperimentFlags(Cli &cli)
{
    cli.declare("fast", "false",
                "reduced repetitions/benchmarks for a quick smoke run");
    cli.declare("config", "",
                "load configuration from this JSON file first");
    cli.declareMulti("set",
                     "override one config key, e.g. "
                     "--set core.decode_width=4 (after --config and the "
                     "legacy flags; repeatable)");
    cli.declare("save-config", "",
                "write the effective configuration to this JSON file");
    cli.declare("seed", "0",
                "master seed folded into the config fingerprint");
    cli.declare("reps", "10", "minimum FAME repetitions per benchmark");
    cli.declare("maiv", "0.01", "maximum allowable IPC variation");
    cli.declare("scale", "1.0", "work multiplier per repetition");
    cli.declare("all15", "false",
                "sweep all 15 micro-benchmarks instead of the paper's 6");
    cli.declare("csv", "false", "emit CSV instead of ASCII tables");
    cli.declare("jobs", "0",
                "simulation worker threads (0 = hardware concurrency)");
    cli.declare("json", "",
                "also write machine-readable results to this file");
    cli.declare("no-fast-forward", "false",
                "tick every cycle instead of skipping verified-idle "
                "gaps (stats are bit-identical; this is ~a 3-10x "
                "slowdown escape hatch)");
    cli.declare("checkpoint-dir", "",
                "persist warmed-state checkpoints in this directory so "
                "later processes fork instead of re-warming (created "
                "when absent; sweep defaults to <store>/ckpt)");
    cli.declare("no-checkpoint", "false",
                "warm every FAME job inline instead of sharing "
                "checkpointed warm state (stats are bit-identical; "
                "this only costs wall clock)");
}

/** Flags naming the workload the alloc subcommand schedules. */
void
declareAllocFlags(Cli &cli)
{
    cli.declare("mix",
                "cpu_int,cpu_int,cpu_int,cpu_int,"
                "ldint_mem,ldint_mem,ldint_mem,ldint_mem",
                "comma-separated micro-benchmark names; one runnable "
                "thread each");
    cli.declare("policies", "pinned,random,symbiosis",
                "comma-separated allocation policies to compare");
    cli.declare("cycles", "400000",
                "simulated chip cycles per policy run");
}

/** Flags naming the FAME pair the run/sweep subcommands simulate. */
void
declarePairFlags(Cli &cli)
{
    cli.declare("primary", "cpu_int",
                "PThread micro-benchmark (paper name)");
    cli.declare("secondary", "ldint_mem",
                "SThread micro-benchmark (paper name, or 'none' for "
                "single-thread mode)");
    cli.declare("prio-p", "4", "PThread priority (0..7)");
    cli.declare("prio-s", "4", "SThread priority (0..7)");
}

/**
 * Build the effective ExpConfig from the parsed flags, in fixed
 * precedence order: defaults (or the --fast preset), then the --config
 * file, then the legacy convenience flags, then --set overrides.
 * Validates, stamps the fingerprint into config.configTag and fills
 * the context's provenance fields.
 */
ExpConfig
buildConfig(const Cli &cli, DriverContext &ctx)
{
    ExpConfig config;
    if (cli.boolean("fast"))
        config = ExpConfig::fast();

    ConfigTree tree(config);
    if (cli.isSet("config"))
        tree.loadFile(cli.str("config"));
    if (cli.isSet("reps"))
        tree.set("fame.min_repetitions", cli.str("reps"));
    if (cli.isSet("maiv"))
        tree.set("fame.maiv", cli.str("maiv"));
    if (cli.isSet("scale"))
        tree.set("exp.ubench_scale", cli.str("scale"));
    if (cli.boolean("all15"))
        tree.set("exp.benchmarks", "all");
    if (cli.isSet("jobs"))
        tree.set("exp.jobs", cli.str("jobs"));
    if (cli.boolean("no-fast-forward"))
        tree.set("core.fast_forward", "false");
    if (cli.isSet("seed"))
        tree.set("exp.seed", cli.str("seed"));
    for (const std::string &assignment : cli.list("set"))
        tree.applyOverride(assignment);

    tree.validate();
    tree.stampTag();
    ctx.fingerprint = config.configTag;
    ctx.seed = config.seed;

    if (cli.isSet("save-config"))
        tree.saveFile(cli.str("save-config"));
    return config;
}

// --- table/figure subcommands ------------------------------------------

int
cmdTable1(const Cli &, DriverContext &ctx, ExpConfig &config)
{
    const Table table = renderTable1();
    printTable(ctx, table);
    writeReport(ctx, "table1", config,
                [&](JsonWriter &w) { writeJson(w, table); });
    return 0;
}

int
cmdTable2(const Cli &, DriverContext &ctx, ExpConfig &config)
{
    const Table table = renderTable2();
    printTable(ctx, table);
    writeReport(ctx, "table2", config,
                [&](JsonWriter &w) { writeJson(w, table); });
    return 0;
}

int
cmdTable3(const Cli &, DriverContext &ctx, ExpConfig &config)
{
    const Table3Data data = runTable3(config);
    printTable(ctx, renderTable3(data));
    writeReport(ctx, "table3", config,
                [&](JsonWriter &w) { writeJson(w, data); });
    return 0;
}

int
cmdFig2(const Cli &, DriverContext &ctx, ExpConfig &config)
{
    const PrioCurveData data = runFig2(config);
    printTables(ctx, renderPrioCurves(data, "Figure 2"));
    writeReport(ctx, "fig2", config,
                [&](JsonWriter &w) { writeJson(w, data); });
    return 0;
}

int
cmdFig3(const Cli &, DriverContext &ctx, ExpConfig &config)
{
    const PrioCurveData data = runFig3(config);
    printTables(ctx, renderPrioCurves(data, "Figure 3"));
    writeReport(ctx, "fig3", config,
                [&](JsonWriter &w) { writeJson(w, data); });
    return 0;
}

int
cmdFig4(const Cli &, DriverContext &ctx, ExpConfig &config)
{
    const ThroughputData data = runFig4(config);
    printTables(ctx, renderFig4(data));
    writeReport(ctx, "fig4", config,
                [&](JsonWriter &w) { writeJson(w, data); });
    return 0;
}

int
cmdFig5(const Cli &, DriverContext &ctx, ExpConfig &config)
{
    const std::vector<CaseStudyData> data =
        runFig5({{SpecProxyId::H264ref, SpecProxyId::Mcf},
                 {SpecProxyId::Applu, SpecProxyId::Equake}},
                config);
    for (const CaseStudyData &d : data)
        printTable(ctx, renderFig5(d));
    writeReport(ctx, "fig5", config, [&](JsonWriter &w) {
        w.beginArray();
        for (const CaseStudyData &d : data)
            writeJson(w, d);
        w.endArray();
    });
    return 0;
}

int
cmdTable4(const Cli &, DriverContext &ctx, ExpConfig &config)
{
    const Table4Data data = runTable4(config);
    printTable(ctx, renderTable4(data));
    writeReport(ctx, "table4", config,
                [&](JsonWriter &w) { writeJson(w, data); });
    return 0;
}

int
cmdFig6(const Cli &, DriverContext &ctx, ExpConfig &config)
{
    const TransparencyData data = runFig6(config);
    printTables(ctx, renderFig6(data));
    writeReport(ctx, "fig6", config,
                [&](JsonWriter &w) { writeJson(w, data); });
    return 0;
}

// --- ablation ----------------------------------------------------------

/** One ablation row: a label, the FAME pair it simulates, the result. */
struct AblationRow
{
    std::string name;
    SimJob job;
    FameResult result;
};

/** One ablation table: its title and rows. */
struct AblationSection
{
    std::string title;
    std::vector<AblationRow> rows;
};

/** The ablation studies, enumerated as SimJobs in table order. */
std::vector<AblationSection>
ablationSections(const ExpConfig &base)
{
    auto ub = [&base](UbenchId id) {
        return ProgramSpec::ubench(id, base.ubenchScale);
    };
    auto spec = [&base](SpecProxyId id) {
        return ProgramSpec::spec(id, base.ubenchScale);
    };
    // Rows differ from the base config in core parameters only.
    auto row = [&base](std::string name, const CoreParams &core,
                       ProgramSpec p, ProgramSpec s, int prio_p,
                       int prio_s) {
        SimJob job = SimJob::famePair(std::move(p), std::move(s), prio_p,
                                      prio_s, core, base.fame);
        job.configTag = base.configTag;
        job.warmTag = base.warmTag;
        return AblationRow{std::move(name), std::move(job), {}};
    };

    std::vector<AblationSection> sections;
    {
        AblationSection &sec = sections.emplace_back();
        sec.title = "Ablation 1: balancer on/off — h264ref + mcf at (4,4) "
                    "(the window-sensitive thread needs GCT protection)";
        sec.rows.push_back(row("balancer on", base.core,
                               spec(SpecProxyId::H264ref),
                               spec(SpecProxyId::Mcf), 4, 4));
        CoreParams off = base.core;
        off.balancer.enabled = false;
        sec.rows.push_back(row("balancer off", off,
                               spec(SpecProxyId::H264ref),
                               spec(SpecProxyId::Mcf), 4, 4));
    }
    {
        AblationSection &sec = sections.emplace_back();
        sec.title = "Ablation 2: strict vs work-conserving decode slots — "
                    "br_hit + ldint_mem at (4,4) (the decode-hungry thread "
                    "could use the memory thread's dead slots)";
        sec.rows.push_back(row("strict slots (POWER5)", base.core,
                               ub(UbenchId::BrHit), ub(UbenchId::LdintMem),
                               4, 4));
        CoreParams wc = base.core;
        wc.workConservingSlots = true;
        sec.rows.push_back(row("work-conserving", wc, ub(UbenchId::BrHit),
                               ub(UbenchId::LdintMem), 4, 4));
    }
    {
        AblationSection &sec = sections.emplace_back();
        sec.title = "Ablation 3: minority-slot width — cpu_int + cpu_int at "
                    "(2,6), PThread is the minority";
        for (int width : {1, 2, 5}) {
            CoreParams core = base.core;
            core.minoritySlotWidth = width;
            sec.rows.push_back(row("width " + std::to_string(width), core,
                                   ub(UbenchId::CpuInt),
                                   ub(UbenchId::CpuInt), 2, 6));
        }
    }
    {
        AblationSection &sec = sections.emplace_back();
        sec.title = "Ablation 4: priority-aware GCT threshold — h264ref + "
                    "mcf at (6,2) (prioritization must release the window)";
        sec.rows.push_back(row("priority-aware", base.core,
                               spec(SpecProxyId::H264ref),
                               spec(SpecProxyId::Mcf), 6, 2));
        CoreParams off = base.core;
        off.balancer.priorityAwareGct = false;
        sec.rows.push_back(row("fixed threshold", off,
                               spec(SpecProxyId::H264ref),
                               spec(SpecProxyId::Mcf), 6, 2));
    }
    {
        AblationSection &sec = sections.emplace_back();
        sec.title = "Ablation 5: priority-aware table walker — ldint_mem + "
                    "ldint_mem at (6,2)";
        sec.rows.push_back(row("priority-aware", base.core,
                               ub(UbenchId::LdintMem),
                               ub(UbenchId::LdintMem), 6, 2));
        CoreParams off = base.core;
        off.priorityAwareWalker = false;
        sec.rows.push_back(row("FCFS walker", off, ub(UbenchId::LdintMem),
                               ub(UbenchId::LdintMem), 6, 2));
    }
    {
        AblationSection &sec = sections.emplace_back();
        sec.title = "Ablation 6: LMQ size — ldint_l2 + ldint_l2 at (4,4)";
        for (int entries : {2, 4, 8, 16}) {
            CoreParams core = base.core;
            core.lmqEntries = entries;
            core.balancer.lmqThreshold =
                std::min(core.balancer.lmqThreshold, entries);
            sec.rows.push_back(row(std::to_string(entries) + " entries",
                                   core, ub(UbenchId::LdintL2),
                                   ub(UbenchId::LdintL2), 4, 4));
        }
    }
    return sections;
}

/**
 * All ablation rows run as one batch through the producers' runner
 * and cache, so rows that repeat a paper point (e.g. the balancer-on
 * h264ref + mcf row is Fig. 5's diff 0) reuse it in-process.
 */
int
cmdAblation(const Cli &, DriverContext &ctx, ExpConfig &base)
{
    std::vector<AblationSection> sections = ablationSections(base);
    std::vector<SimJob> batch;
    for (const AblationSection &sec : sections)
        for (const AblationRow &r : sec.rows)
            batch.push_back(r.job);

    SimRunner runner(base.jobs, base.cache);
    runner.setCheckpoints(base.checkpoints);
    const std::vector<SimResult> res = runner.run(batch);
    std::size_t next = 0;
    for (AblationSection &sec : sections)
        for (AblationRow &r : sec.rows)
            r.result = res[next++].fame;

    for (const AblationSection &sec : sections) {
        Table t(sec.title);
        t.setColumns({"config", "PThread IPC", "SThread IPC", "total"});
        for (const AblationRow &r : sec.rows)
            t.addRow({r.name, Table::fmt(r.result.thread[0].avgIpc(), 3),
                      Table::fmt(r.result.thread[1].avgIpc(), 3),
                      Table::fmt(r.result.totalIpc(), 3)});
        printTable(ctx, t);
    }

    writeReport(ctx, "ablation", base, [&](JsonWriter &w) {
        w.beginArray();
        for (const AblationSection &sec : sections) {
            w.beginObject();
            w.member("title", sec.title);
            w.key("rows");
            w.beginArray();
            for (const AblationRow &r : sec.rows) {
                w.beginObject();
                w.member("config", r.name);
                w.member("ipcP", r.result.thread[0].avgIpc());
                w.member("ipcS", r.result.thread[1].avgIpc());
                w.member("total", r.result.totalIpc());
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
    });
    return 0;
}

// --- run ---------------------------------------------------------------

/**
 * One FAME run of a named pair on the calling thread, with the full
 * per-core StatGroup routed into the JSON report — the introspection
 * path the batch producers (which only keep the FAME measurements)
 * deliberately do not have.
 */
int
cmdRun(const Cli &cli, DriverContext &ctx, ExpConfig &config)
{
    const std::string secondary_name = cli.str("secondary");
    const bool has_secondary =
        !secondary_name.empty() && secondary_name != "none";
    const int prio_p = static_cast<int>(cli.integer("prio-p"));
    const int prio_s = static_cast<int>(cli.integer("prio-s"));

    // workload.trace(_secondary) replaces the --primary/--secondary
    // synthetic benchmark with a recorded trace.
    const ProgramSpec spec_p =
        !config.workloadTrace.empty()
            ? ProgramSpec::trace(config.workloadTrace)
            : ProgramSpec::ubench(ubenchFromName(cli.str("primary")),
                                  config.ubenchScale);
    ProgramSpec spec_s;
    if (has_secondary)
        spec_s = !config.workloadTraceSecondary.empty()
                     ? ProgramSpec::trace(config.workloadTraceSecondary)
                     : ProgramSpec::ubench(
                           ubenchFromName(secondary_name),
                           config.ubenchScale);
    const std::string name_p = spec_p.kind == ProgramSpec::Kind::Trace
                                   ? spec_p.traceName
                                   : cli.str("primary");
    const std::string name_s =
        !has_secondary ? std::string("none")
        : spec_s.kind == ProgramSpec::Kind::Trace ? spec_s.traceName
                                                  : secondary_name;

    const std::unique_ptr<InstrSource> prog_p = spec_p.build();
    const std::unique_ptr<InstrSource> prog_s =
        has_secondary ? spec_s.build() : nullptr;

    // Canonical-warm protocol, inlined (this command keeps its own core
    // for the stats dump below): attach at the canonical priority, warm
    // (or fork a checkpoint of that warm state), then switch to the
    // requested pair at the measurement boundary — the same trajectory
    // runFame() drives, so the stats match the batch producers'.
    SmtCore core(config.core);
    core.attachThread(0, prog_p.get(), canonical_warm_priority);
    if (prog_s)
        core.attachThread(1, prog_s.get(), canonical_warm_priority);

    // Sample the symbiosis-predictor inputs (per-thread IPC, L2
    // misses, GCT occupancy) once per sched.quantum; the series land
    // in the "stats" dump below, so this run's JSON is enough to
    // replay an allocation decision offline. A forked run skips the
    // warm phase, so it records fewer quanta than a cold run — the
    // measurement-phase samples and every simulated stat still match.
    QuantumMonitor monitor(core, config.sched.quantum);
    FameRunner runner(config.fame);
    runner.setChunkHook([&monitor](SmtCore &) { monitor.poll(); });
    if (config.checkpoints) {
        SimJob job;
        if (has_secondary) {
            job = SimJob::famePair(spec_p, spec_s, prio_p, prio_s,
                                   config.core, config.fame);
        } else {
            job = SimJob::fameSingle(spec_p, config.core, config.fame,
                                     prio_p);
        }
        job.configTag = config.configTag;
        job.warmTag = config.warmTag;
        const std::string warm_key = job.warmKey();
        const CkptManager::Acquired acq = config.checkpoints->acquire(
            warm_key, [&]() -> Checkpoint {
                runner.runWarmup(core);
                Checkpoint ck;
                ck.warmKey = warm_key;
                ck.fingerprint = ckptFingerprintHex(warm_key);
                ck.warmCycles = core.cycle();
                CkptWriter w;
                core.saveState(w);
                ck.state = w.data();
                return ck;
            });
        if (!acq.created) {
            CkptReader r(acq.ckpt->state);
            core.restoreState(r);
            r.expectEnd();
        }
    } else {
        runner.runWarmup(core);
    }
    core.setPriorityPair(prio_p, prog_s ? prio_s : 0);
    const FameResult result = runner.measure(core, 0);

    Table t("p5sim run: " + name_p + " + " + name_s + " at (" +
            std::to_string(prio_p) + "," + std::to_string(prio_s) +
            ")");
    t.setColumns({"thread", "benchmark", "priority", "executions",
                  "avg exec cycles", "IPC"});
    t.addRow({"P", name_p, std::to_string(prio_p),
              std::to_string(result.thread[0].executions),
              Table::fmt(result.thread[0].avgExecTime(), 1),
              Table::fmt(result.thread[0].avgIpc(), 3)});
    if (has_secondary)
        t.addRow({"S", name_s, std::to_string(prio_s),
                  std::to_string(result.thread[1].executions),
                  Table::fmt(result.thread[1].avgExecTime(), 1),
                  Table::fmt(result.thread[1].avgIpc(), 3)});
    printTable(ctx, t);

    writeReport(ctx, "run", config, [&](JsonWriter &w) {
        w.beginObject();
        w.member("primary", name_p);
        w.member("secondary", name_s);
        w.member("prioP", prio_p);
        w.member("prioS", prio_s);
        w.member("converged", result.converged);
        w.member("totalCycles",
                 static_cast<std::uint64_t>(result.totalCycles));
        w.member("ipcPrimary", result.thread[0].avgIpc());
        w.member("ipcSecondary", result.thread[1].avgIpc());
        w.member("ipcTotal", result.totalIpc());
        w.member("symbiosisQuanta", monitor.quantaRecorded());
        w.member("symbiosisQuantum",
                 static_cast<std::uint64_t>(monitor.quantum()));
        w.key("stats");
        core.stats().dumpJson(w);
        w.endObject();
    });
    return 0;
}

// --- sweep -------------------------------------------------------------

struct SweepAxis
{
    std::string path;
    std::vector<std::string> values;
};

struct SweepPoint
{
    std::vector<std::pair<std::string, std::string>> coords;
    ExpConfig config;
};

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : text) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

/** Persistence/partition options of one sweep invocation. */
struct SweepOptions
{
    std::string storeDir; ///< "" = no persistent store
    bool resume = false;  ///< serve already-stored points from disk
    int shardIndex = 0;
    int shardCount = 1;        ///< 1 = unsharded
    std::size_t pointsTotal = 0; ///< full-product size before sharding
};

int finishSweep(DriverContext &ctx, ExpConfig &base,
                const std::vector<SweepAxis> &axes,
                const std::vector<SweepPoint> &points, UbenchId primary,
                UbenchId secondary, bool has_secondary, int prio_p,
                int prio_s, const SweepOptions &opts);

/**
 * Fan the cartesian product of the --sweep axes out as one SimJob
 * batch through the thread pool, then aggregate per-point results
 * (with each point's own fingerprint) into a single table + report.
 */
int
cmdSweep(const Cli &cli, DriverContext &ctx, ExpConfig &base)
{
    std::vector<SweepAxis> axes;
    for (const std::string &spec : cli.list("sweep")) {
        const auto eq = spec.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size())
            fatal("--sweep expects key=v1,v2,..., got '%s'",
                  spec.c_str());
        SweepAxis axis;
        axis.path = spec.substr(0, eq);
        // A path named twice would silently collapse to whichever axis
        // applies last while still multiplying the point count.
        for (const SweepAxis &prev : axes)
            if (prev.path == axis.path)
                fatal("duplicate --sweep axis '%s': each config path "
                      "may be swept only once",
                      axis.path.c_str());
        for (const std::string &v : splitList(spec.substr(eq + 1))) {
            if (v.empty())
                fatal("--sweep axis '%s' has an empty value",
                      axis.path.c_str());
            axis.values.push_back(v);
        }
        axes.push_back(std::move(axis));
    }
    if (axes.empty())
        fatal("sweep requires at least one --sweep key=v1,v2,... axis");

    SweepOptions opts;
    opts.storeDir = cli.str("store");
    opts.resume = cli.boolean("resume");
    if (opts.resume && opts.storeDir.empty())
        fatal("--resume requires --store DIR (there is nothing to "
              "resume from without a store)");
    if (cli.isSet("shard")) {
        const std::string spec = cli.str("shard");
        const auto slash = spec.find('/');
        std::int64_t index = 0;
        std::int64_t count = 0;
        if (slash == std::string::npos ||
            parseInt64(spec.substr(0, slash), index) !=
                ParseStatus::Ok ||
            parseInt64(spec.substr(slash + 1), count) !=
                ParseStatus::Ok ||
            count < 1 || index < 0 || index >= count)
            fatal("--shard expects i/N with 0 <= i < N, got '%s'",
                  spec.c_str());
        opts.shardIndex = static_cast<int>(index);
        opts.shardCount = static_cast<int>(count);
    }

    const UbenchId primary = ubenchFromName(cli.str("primary"));
    const std::string secondary_name = cli.str("secondary");
    const bool has_secondary =
        !secondary_name.empty() && secondary_name != "none";
    const UbenchId secondary =
        has_secondary ? ubenchFromName(secondary_name) : primary;
    const int prio_p = static_cast<int>(cli.integer("prio-p"));
    const int prio_s = static_cast<int>(cli.integer("prio-s"));

    // Enumerate the cartesian product; the last axis varies fastest.
    std::vector<SweepPoint> points;
    std::vector<std::size_t> idx(axes.size(), 0);
    bool done = false;
    while (!done) {
        SweepPoint pt;
        pt.config = base;
        {
            ConfigTree tree(pt.config);
            for (std::size_t a = 0; a < axes.size(); ++a) {
                tree.set(axes[a].path, axes[a].values[idx[a]]);
                pt.coords.emplace_back(axes[a].path,
                                       axes[a].values[idx[a]]);
            }
            tree.validate();
            tree.stampTag();
        }
        points.push_back(std::move(pt));

        std::size_t a = axes.size();
        for (;;) {
            if (a == 0) {
                done = true;
                break;
            }
            --a;
            if (++idx[a] < axes[a].values.size())
                break;
            idx[a] = 0;
        }
    }

    // Shard by position in the FULL product: every shard enumerates
    // (and fingerprints) the same point list and keeps a disjoint
    // residue class, so shard i/N of a sweep sees bit-identical
    // per-point fingerprints to the unsharded run and the N shards
    // partition it exactly.
    opts.pointsTotal = points.size();
    if (opts.shardCount > 1) {
        std::vector<SweepPoint> kept;
        for (std::size_t i = 0; i < points.size(); ++i)
            if (i % static_cast<std::size_t>(opts.shardCount) ==
                static_cast<std::size_t>(opts.shardIndex))
                kept.push_back(std::move(points[i]));
        points = std::move(kept);
    }

    return finishSweep(ctx, base, axes, points, primary, secondary,
                       has_secondary, prio_p, prio_s, opts);
}

int
finishSweep(DriverContext &ctx, ExpConfig &base,
            const std::vector<SweepAxis> &axes,
            const std::vector<SweepPoint> &points, UbenchId primary,
            UbenchId secondary, bool has_secondary, int prio_p,
            int prio_s, const SweepOptions &opts)
{
    // One batch: every point becomes a job, and the pool (plus the
    // result cache) fans them out together.
    std::vector<SimJob> batch;
    batch.reserve(points.size());
    for (const SweepPoint &pt : points) {
        // Per-point specs: workload.trace(_secondary) — whether from
        // the base config or swept as an axis — replaces the synthetic
        // benchmark, and each point's trace fingerprint rides in its
        // job key.
        const ProgramSpec spec_p =
            !pt.config.workloadTrace.empty()
                ? ProgramSpec::trace(pt.config.workloadTrace)
                : ProgramSpec::ubench(primary, pt.config.ubenchScale);
        SimJob job;
        if (has_secondary) {
            const ProgramSpec spec_s =
                !pt.config.workloadTraceSecondary.empty()
                    ? ProgramSpec::trace(
                          pt.config.workloadTraceSecondary)
                    : ProgramSpec::ubench(secondary,
                                          pt.config.ubenchScale);
            job = SimJob::famePair(spec_p, spec_s, prio_p, prio_s,
                                   pt.config.core, pt.config.fame);
        } else {
            job = SimJob::fameSingle(spec_p, pt.config.core,
                                     pt.config.fame, prio_p);
        }
        job.configTag = pt.config.configTag;
        // Warm identity: points that differ only in measurement knobs
        // (e.g. a fame.min_repetitions axis) share one warm key and
        // fork a single warm-up between them.
        job.warmTag = pt.config.warmTag;
        batch.push_back(std::move(job));
    }

    std::optional<ResultStore> store;
    std::vector<StoreProvenance> provenance;
    std::size_t stored_before = 0;
    if (!opts.storeDir.empty()) {
        store.emplace(opts.storeDir);
        provenance.reserve(points.size());
        for (const SweepPoint &pt : points) {
            StoreProvenance prov;
            prov.seed = pt.config.seed;
            prov.sweep = pt.coords;
            provenance.push_back(std::move(prov));
        }
        // Pre-pass for the resume report: how many of this run's
        // points are already on disk (whether or not they validate —
        // the post-run hit counter is the validated figure).
        for (const SimJob &job : batch)
            if (store->contains(job))
                ++stored_before;
    }

    SimRunner runner(base.jobs, base.cache);
    if (store)
        runner.setStore(&*store, opts.resume);
    runner.setCheckpoints(base.checkpoints);
    const std::vector<SimResult> results =
        runner.run(batch, store ? &provenance : nullptr);

    const std::string name_p =
        base.workloadTrace.empty()
            ? std::string(ubenchName(primary))
            : readTraceHeader(base.workloadTrace).name;
    const std::string name_s =
        !has_secondary ? std::string("none")
        : base.workloadTraceSecondary.empty()
            ? std::string(ubenchName(secondary))
            : readTraceHeader(base.workloadTraceSecondary).name;
    Table t("p5sim sweep: " + name_p + " + " + name_s + " at (" +
            std::to_string(prio_p) + "," + std::to_string(prio_s) +
            "), " + std::to_string(points.size()) + " points");
    std::vector<std::string> columns;
    for (const SweepAxis &axis : axes)
        columns.push_back(axis.path);
    columns.insert(columns.end(),
                   {"fingerprint", "PThread IPC", "SThread IPC",
                    "total"});
    t.setColumns(columns);
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::vector<std::string> row;
        for (const auto &coord : points[i].coords)
            row.push_back(coord.second);
        row.push_back(points[i].config.configTag);
        row.push_back(Table::fmt(results[i].fame.thread[0].avgIpc(), 3));
        row.push_back(Table::fmt(results[i].fame.thread[1].avgIpc(), 3));
        row.push_back(Table::fmt(results[i].fame.totalIpc(), 3));
        t.addRow(std::move(row));
    }
    printTable(ctx, t);

    if (store) {
        // The resume accounting the tests (and sharded operators)
        // read: hits() counts points served from disk after full
        // validation, writes() counts points actually simulated this
        // run — they partition the batch when the process cache
        // started cold.
        *ctx.out << "store: " << store->hits() << " stored, "
                 << store->writes() << " recomputed, "
                 << stored_before << " present before the run, "
                 << store->quarantined() << " quarantined ("
                 << store->dir() << ")\n\n";
    }

    // The envelope's sweep coordinates describe the axes; each point
    // carries its own coordinates and fingerprint in the payload.
    for (const SweepAxis &axis : axes) {
        std::string joined;
        for (std::size_t i = 0; i < axis.values.size(); ++i) {
            if (i)
                joined += ',';
            joined += axis.values[i];
        }
        ctx.sweep.emplace_back(axis.path, joined);
    }

    writeReport(ctx, "sweep", base, [&](JsonWriter &w) {
        w.beginObject();
        w.member("primary", name_p);
        w.member("secondary", name_s);
        w.member("prioP", prio_p);
        w.member("prioS", prio_s);
        w.key("points");
        w.beginArray();
        for (std::size_t i = 0; i < points.size(); ++i) {
            w.beginObject();
            w.key("coords");
            w.beginObject();
            for (const auto &coord : points[i].coords)
                w.member(coord.first, coord.second);
            w.endObject();
            w.member("fingerprint", points[i].config.configTag);
            w.member("converged", results[i].fame.converged);
            w.member("ipcPrimary",
                     results[i].fame.thread[0].avgIpc());
            w.member("ipcSecondary",
                     results[i].fame.thread[1].avgIpc());
            w.member("ipcTotal", results[i].fame.totalIpc());
            w.endObject();
        }
        w.endArray();
        // "points" stays byte-identical across store/resume/shard
        // variants of the same sweep (CI diffs it); run-mode state
        // lives in these separate members.
        if (opts.shardCount > 1) {
            w.key("shard");
            w.beginObject();
            w.member("index", opts.shardIndex);
            w.member("count", opts.shardCount);
            w.member("pointsTotal",
                     static_cast<std::uint64_t>(opts.pointsTotal));
            w.member("pointsKept",
                     static_cast<std::uint64_t>(points.size()));
            w.endObject();
        }
        if (store) {
            w.key("store");
            w.beginObject();
            w.member("dir", store->dir());
            w.member("schemaVersion", store->schemaVersion());
            w.member("resume", opts.resume);
            w.member("stored", store->hits());
            w.member("recomputed", store->writes());
            w.member("presentBefore",
                     static_cast<std::uint64_t>(stored_before));
            w.member("quarantined", store->quarantined());
            w.member("entries",
                     static_cast<std::uint64_t>(store->countEntries()));
            w.endObject();
        }
        w.endObject();
    });
    return 0;
}

// --- alloc -------------------------------------------------------------

/**
 * Compare thread-to-core allocation policies on one N-core chip: the
 * --mix benchmarks become runnable threads, each --policies entry gets
 * one AllocEngine run over --cycles, and the table reports aggregate
 * IPC relative to the pinned baseline. Chip width and scheduling knobs
 * come from the config tree (chip.num_cores, sched.*), so a run is
 * reproducible from its fingerprint plus the flag values.
 */
int
cmdAlloc(const Cli &cli, DriverContext &ctx, ExpConfig &config)
{
    std::vector<UbenchId> mix;
    for (const std::string &name : splitList(cli.str("mix"))) {
        if (name.empty())
            fatal("--mix has an empty benchmark name");
        mix.push_back(ubenchFromName(name));
    }

    std::vector<AllocPolicy> policies;
    for (const std::string &name : splitList(cli.str("policies"))) {
        if (name.empty())
            fatal("--policies has an empty policy name");
        policies.push_back(allocPolicyFromName(name));
    }

    const long cycles = cli.integer("cycles");
    if (cycles <= 0)
        fatal("--cycles must be positive, got %ld", cycles);

    const AllocStudyData data = runAllocStudy(
        mix, policies, static_cast<Cycle>(cycles), config);
    printTable(ctx, renderAllocStudy(data));
    writeReport(ctx, "alloc", config,
                [&](JsonWriter &w) { writeJson(w, data); });
    return 0;
}

// --- serve -------------------------------------------------------------

/** Split @p line on runs of spaces/tabs. */
std::vector<std::string>
splitTokens(const std::string &line)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : line) {
        if (c == ' ' || c == '\t') {
            if (!cur.empty()) {
                out.push_back(cur);
                cur.clear();
            }
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** One compact-JSON error reply line. */
void
serveError(std::ostream &os, const std::string &message)
{
    {
        JsonWriter w(os, -1);
        w.beginObject();
        w.member("error", message);
        w.endObject();
    }
    os << '\n';
}

/**
 * Answer fingerprint and store queries over a line protocol (stdin ->
 * stdout, one compact JSON reply per request line):
 *
 *   fingerprint [key=value ...]  config fingerprint of the base config
 *                                (from --config/--set/... flags) with
 *                                the given --set-style overrides applied
 *   get <fp> [<fp> ...]          the stored document at each 16-hex-digit
 *                                job fingerprint, verbatim — one reply
 *                                line per fingerprint, in request order
 *   mget <fp> [<fp> ...]         the same lookups as one reply line:
 *                                {"results":[...]} parallel to the
 *                                request, misses as inline error objects
 *   stat                         store-wide counters and entry count
 *   quit                         {"ok":true}, then exit 0 (EOF too)
 *
 * Unknown commands, unknown config keys and absent fingerprints are
 * error replies, not process exits — a prober must survive its own
 * typos. Malformed *values* (e.g. "fingerprint core.decode_width=8x")
 * still go through the fatal config-validation path by design: they
 * indicate a broken caller, and exiting matches every other p5sim
 * surface.
 */
int
cmdServe(const Cli &cli, DriverContext &ctx, ExpConfig &base)
{
    if (cli.str("store").empty())
        fatal("serve requires --store DIR");
    ResultStore store(cli.str("store"));

    std::istream &in = *ctx.in;
    std::ostream &out = *ctx.out;
    std::string line;
    while (std::getline(in, line)) {
        const std::vector<std::string> tokens = splitTokens(line);
        if (tokens.empty())
            continue;
        const std::string &cmd = tokens[0];

        if (cmd == "quit") {
            JsonWriter w(out, -1);
            w.beginObject();
            w.member("ok", true);
            w.endObject();
            out << '\n';
            break;
        }

        if (cmd == "stat") {
            {
                JsonWriter w(out, -1);
                w.beginObject();
                w.member("dir", store.dir());
                w.member("schemaVersion", store.schemaVersion());
                w.member("entries", static_cast<std::uint64_t>(
                                        store.countEntries()));
                w.member("hits", store.hits());
                w.member("misses", store.misses());
                w.member("quarantined", store.quarantined());
                w.endObject();
            }
            out << '\n';
            continue;
        }

        if (cmd == "get") {
            if (tokens.size() < 2) {
                serveError(out,
                           "get expects at least one fingerprint");
                continue;
            }
            // One reply line PER fingerprint, in request order — the
            // streaming shape: a reader can act on each document as it
            // arrives without waiting for the batch.
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                JsonValue doc;
                if (!store.loadRaw(tokens[i], doc)) {
                    serveError(out,
                               "no stored result for fingerprint '" +
                                   tokens[i] + "'");
                    continue;
                }
                {
                    JsonWriter w(out, -1);
                    doc.write(w);
                }
                out << '\n';
            }
            continue;
        }

        if (cmd == "mget") {
            if (tokens.size() < 2) {
                serveError(out,
                           "mget expects at least one fingerprint");
                continue;
            }
            // Exactly ONE reply line for the whole request — the
            // transactional shape: "results" parallels the request,
            // with an inline {"error": ...} object for each miss, so a
            // caller can pair replies to fingerprints by index.
            {
                JsonWriter w(out, -1);
                w.beginObject();
                w.key("results");
                w.beginArray();
                for (std::size_t i = 1; i < tokens.size(); ++i) {
                    JsonValue doc;
                    if (store.loadRaw(tokens[i], doc)) {
                        doc.write(w);
                    } else {
                        w.beginObject();
                        w.member("error",
                                 "no stored result for fingerprint '" +
                                     tokens[i] + "'");
                        w.endObject();
                    }
                }
                w.endArray();
                w.endObject();
            }
            out << '\n';
            continue;
        }

        if (cmd == "fingerprint") {
            // Apply the query's overrides to a copy of the flag-built
            // base config, so one server answers for a whole family of
            // configurations.
            ExpConfig cfg = base;
            ConfigTree tree(cfg);
            bool ok = true;
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                const auto eq = tokens[i].find('=');
                if (eq == std::string::npos || eq == 0) {
                    serveError(out, "expected key=value, got '" +
                                        tokens[i] + "'");
                    ok = false;
                    break;
                }
                const std::string key = tokens[i].substr(0, eq);
                if (!tree.has(key)) {
                    std::string message = "unknown config key '" + key +
                                          "'";
                    const std::string near = tree.suggest(key);
                    if (!near.empty())
                        message += " (did you mean '" + near + "'?)";
                    serveError(out, message);
                    ok = false;
                    break;
                }
                tree.set(key, tokens[i].substr(eq + 1));
            }
            if (!ok)
                continue;
            tree.validate();
            tree.stampTag();
            {
                JsonWriter w(out, -1);
                w.beginObject();
                w.member("fingerprint", cfg.configTag);
                w.member("schemaVersion", config_schema_version);
                w.endObject();
            }
            out << '\n';
            continue;
        }

        serveError(out, "unknown command '" + cmd +
                            "' (try: fingerprint, get, mget, stat, "
                            "quit)");
    }
    return 0;
}

// --- store-gc ----------------------------------------------------------

/** One file store-gc would (or did) delete, and why. */
struct GcCandidate
{
    std::string path;
    std::uint64_t bytes = 0;
    const char *reason = "";
};

/**
 * Decide whether basename @p name is reclaimable garbage. The rules
 * are filename-driven on purpose: a collector must not need to open
 * (or trust) the files it is about to delete, and must keep working on
 * an area whose meta pins an older schema (where ResultStore's own
 * constructor would refuse to open).
 */
const char *
gcReason(const std::string &name)
{
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, ".bad") == 0)
        return "quarantined";
    if (name.find(".tmp.") != std::string::npos)
        return "orphan temp"; // a crash between create and rename
    // Superseded generations: the schema/format version is embedded in
    // the filename ("<fp>-v<N>.json", "<fp>-ckpt-v<N>.bin"), so files
    // from any generation other than the one this binary writes are
    // dead weight — the stores ignore them on every path.
    const auto versionedTail = [&name](const char *marker,
                                       const char *suffix) -> long {
        const std::size_t m = name.rfind(marker);
        if (m == std::string::npos)
            return -1;
        const std::size_t digits = m + std::strlen(marker);
        std::size_t end = digits;
        while (end < name.size() && name[end] >= '0' && name[end] <= '9')
            ++end;
        if (end == digits || name.compare(end, std::string::npos, suffix))
            return -1;
        std::int64_t v = 0;
        if (parseInt64(name.substr(digits, end - digits), v) !=
            ParseStatus::Ok)
            return -1;
        return static_cast<long>(v);
    };
    const long ckpt_v = versionedTail("-ckpt-v", ".bin");
    if (ckpt_v >= 0)
        return ckpt_v == ckpt_format_version
                   ? nullptr
                   : "superseded checkpoint format";
    const long result_v = versionedTail("-v", ".json");
    if (result_v >= 0)
        return result_v == config_schema_version
                   ? nullptr
                   : "superseded result schema";
    return nullptr;
}

/** Recursively collect gc candidates under @p dir (sorted later). */
void
gcScan(const std::string &dir, std::vector<GcCandidate> &out)
{
    DIR *d = opendir(dir.c_str());
    if (!d)
        return;
    while (const dirent *entry = readdir(d)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..")
            continue;
        const std::string path = dir + "/" + name;
        struct stat st;
        if (::stat(path.c_str(), &st) != 0)
            continue;
        if (S_ISDIR(st.st_mode)) {
            gcScan(path, out);
            continue;
        }
        if (const char *reason = gcReason(name))
            out.push_back(GcCandidate{
                path, static_cast<std::uint64_t>(st.st_size), reason});
    }
    closedir(d);
}

/**
 * Reclaim dead files from a result-store directory (including its
 * ckpt/ area): quarantined *.bad files, orphaned *.tmp.* files from
 * crashed writers, and results/checkpoints of superseded schema or
 * format generations. Dry run by default — it lists what --apply
 * would delete and the bytes that would come back. Never touches live
 * entries or the meta files.
 */
int
cmdStoreGc(const Cli &cli, DriverContext &ctx, ExpConfig &)
{
    const std::string dir = cli.str("store");
    if (dir.empty())
        fatal("store-gc requires --store DIR");
    const bool apply = cli.boolean("apply");

    std::vector<GcCandidate> candidates;
    gcScan(dir, candidates);
    std::sort(candidates.begin(), candidates.end(),
              [](const GcCandidate &a, const GcCandidate &b) {
                  return a.path < b.path;
              });

    std::ostream &out = *ctx.out;
    std::uint64_t bytes = 0;
    std::uint64_t removed = 0;
    std::uint64_t failed = 0;
    for (const GcCandidate &c : candidates) {
        out << (apply ? "rm " : "would rm ") << c.path << " ("
            << c.reason << ", " << c.bytes << " bytes)\n";
        if (!apply) {
            bytes += c.bytes;
            continue;
        }
        if (std::remove(c.path.c_str()) == 0) {
            bytes += c.bytes;
            ++removed;
        } else {
            // Lost a race with another collector, or permissions;
            // keep going — gc must be safe to run concurrently.
            out << "  (could not remove; skipped)\n";
            ++failed;
        }
    }
    out << "store-gc: " << candidates.size() << " candidate"
        << (candidates.size() == 1 ? "" : "s") << ", " << bytes
        << " bytes " << (apply ? "reclaimed" : "reclaimable");
    if (!apply)
        out << " (dry run; pass --apply to delete)";
    out << "\n";

    if (!ctx.jsonPath.empty()) {
        std::ofstream os(ctx.jsonPath);
        if (!os)
            fatal("cannot open --json file '%s'", ctx.jsonPath.c_str());
        JsonWriter w(os);
        w.beginObject();
        w.member("experiment", "store-gc");
        w.member("dir", dir);
        w.member("applied", apply);
        w.member("candidates",
                 static_cast<std::uint64_t>(candidates.size()));
        w.member("removed", removed);
        w.member("failed", failed);
        w.member("bytesReclaimed", bytes);
        w.key("files");
        w.beginArray();
        for (const GcCandidate &c : candidates) {
            w.beginObject();
            w.member("path", c.path);
            w.member("bytes", c.bytes);
            w.member("reason", c.reason);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    return failed ? 1 : 0;
}

// --- perf --------------------------------------------------------------

int
cmdPerf(const Cli &cli, DriverContext &ctx, ExpConfig &)
{
    if (cli.boolean("profile-stages"))
        return profileStages(*ctx.out);
    if (!ctx.jsonPath.empty())
        return writePerfReport(ctx.jsonPath, *ctx.err);
    fatal("perf requires --json=FILE (speedup report) or "
          "--profile-stages");
}

// --- trace -------------------------------------------------------------

const char *const trace_usage =
    "usage: p5sim trace <verb> [args]\n"
    "\n"
    "verbs:\n"
    "  dump   --benchmark NAME [--scale S] [--executions N] --out FILE\n"
    "         record a synthetic micro-benchmark as a replayable trace\n"
    "  info   FILE   print a trace's header and content fingerprint\n"
    "  check  FILE   validate header, checksum and record bounds; a\n"
    "                corrupt trace is quarantined to FILE.bad unless\n"
    "                --keep is given\n"
    "\n"
    "Replay a dumped trace with --set workload.trace=FILE (or\n"
    "workload.trace_secondary=FILE) on the run and sweep subcommands.\n";

/** The positional FILE of an info/check verb (flags have no place to
 *  put one, and "p5sim trace info foo.trace" must read naturally). */
std::string
tracePositional(int argc, const char *const *argv)
{
    if (argc < 4 || argv[3][0] == '-')
        fatal("p5sim trace %s requires a trace file argument", argv[2]);
    return argv[3];
}

int
traceMain(int argc, const char *const *argv, std::ostream &out,
          std::ostream &err)
{
    if (argc < 3) {
        err << trace_usage;
        return 1;
    }
    const std::string verb = argv[2];
    if (verb == "help" || verb == "--help" || verb == "-h") {
        out << trace_usage;
        return 0;
    }

    if (verb == "dump") {
        Cli cli;
        cli.declare("benchmark", "cpu_int",
                    "paper micro-benchmark to record");
        cli.declare("scale", "1.0", "work multiplier per repetition");
        cli.declare("executions", "8",
                    "complete executions to record (replay wraps, so "
                    "this bounds file size, not run length)");
        cli.declare("out", "", "trace file to write (required)");
        std::vector<const char *> args;
        args.push_back(argv[0]);
        for (int i = 3; i < argc; ++i)
            args.push_back(argv[i]);
        cli.parse(static_cast<int>(args.size()), args.data());
        if (cli.str("out").empty())
            fatal("p5sim trace dump requires --out FILE");
        const std::int64_t executions = cli.integer("executions");
        if (executions < 1)
            fatal("--executions must be at least 1, got %lld",
                  static_cast<long long>(executions));
        const SyntheticProgram prog = makeUbench(
            ubenchFromName(cli.str("benchmark")), cli.real("scale"));
        dumpTrace(prog, static_cast<std::uint64_t>(executions),
                  cli.str("out"));
        const TraceHeader h = readTraceHeader(cli.str("out"));
        out << "trace dump: " << h.name << ", " << h.records
            << " records (" << h.executions << " executions of "
            << h.instrsPerExecution << "), " << h.bytes
            << " payload bytes, fingerprint " << h.fingerprint()
            << " -> " << cli.str("out") << "\n";
        return 0;
    }

    if (verb == "info") {
        const std::string path = tracePositional(argc, argv);
        const TraceHeader h = readTraceHeader(path);
        out << "trace " << path << ":\n"
            << "  name                   " << h.name << "\n"
            << "  instructions/execution " << h.instrsPerExecution
            << "\n"
            << "  records                " << h.records << " ("
            << h.executions << " executions)\n"
            << "  payload bytes          " << h.bytes << "\n";
        char sum[20];
        std::snprintf(sum, sizeof(sum), "%016llx",
                      static_cast<unsigned long long>(h.checksum));
        out << "  checksum               " << sum << "\n"
            << "  fingerprint            " << h.fingerprint() << "\n";
        return 0;
    }

    if (verb == "check") {
        const std::string path = tracePositional(argc, argv);
        bool keep = false;
        for (int i = 4; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--keep")
                keep = true;
            else
                fatal("p5sim trace check: unknown flag '%s'",
                      flag.c_str());
        }
        std::unique_ptr<TraceProgram> prog;
        std::string why;
        if (tryLoadTrace(path, prog, &why)) {
            out << "trace check: " << path << " ok (" << prog->records()
                << " records, fingerprint "
                << prog->header().fingerprint() << ")\n";
            return 0;
        }
        err << "trace check: " << path << ": " << why << "\n";
        if (!keep)
            quarantineTrace(path); // warns with the .bad name
        return 1;
    }

    err << "p5sim trace: unknown verb '" << verb << "'\n\n"
        << trace_usage;
    return 1;
}

// --- dispatch ----------------------------------------------------------

using SubcommandFn = int (*)(const Cli &, DriverContext &, ExpConfig &);

struct Subcommand
{
    const char *name;
    const char *help;
    SubcommandFn fn;
    bool pairFlags = false;  ///< also declare --primary/--secondary/--prio-*
    bool sweepFlag = false;  ///< also declare --sweep/--resume/--shard
    bool allocFlags = false; ///< also declare --mix/--policies/--cycles
    bool storeFlags = false; ///< also declare --store
};

constexpr Subcommand subcommands[] = {
    {"table1", "paper Table 1: priorities, privilege, or-nop encodings",
     cmdTable1, false, false, false},
    {"table2", "paper Table 2: micro-benchmark loop bodies", cmdTable2,
     false, false, false},
    {"table3", "paper Table 3: ST IPC + pairwise SMT(4,4) matrix",
     cmdTable3, false, false, false},
    {"table4", "paper Table 4: FFT/LU pipeline timings", cmdTable4,
     false, false, false},
    {"fig2", "paper Figure 2: speedup at positive priority differences",
     cmdFig2, false, false, false},
    {"fig3", "paper Figure 3: slowdown at negative priority differences",
     cmdFig3, false, false, false},
    {"fig4", "paper Figure 4: total IPC w.r.t. the (4,4) baseline",
     cmdFig4, false, false, false},
    {"fig5", "paper Figure 5: SPEC case-study pairs", cmdFig5, false,
     false, false},
    {"fig6", "paper Figure 6: transparent execution", cmdFig6, false,
     false, false},
    {"ablation", "ablation studies of the simulator's design choices",
     cmdAblation, false, false, false},
    {"run", "one FAME pair with a full per-core stats dump", cmdRun,
     true, false, false},
    {"sweep", "cartesian config sweep fanned out as one job batch",
     cmdSweep, true, true, false, true},
    {"alloc", "thread-to-core allocation policies on an N-core chip",
     cmdAlloc, false, false, true},
    {"serve", "answer fingerprint/result-store queries over stdin",
     cmdServe, false, false, false, true},
    // store-gc declares its own flag set (see driverMain): no
    // experiment config, just --store/--apply/--json.
    {"store-gc", "reclaim dead files from a result-store directory",
     cmdStoreGc, false, false, false, false},
    {"perf", "simulator speedup report / per-stage profile", cmdPerf,
     false, false, false},
    // trace takes a positional verb (dump/info/check), so driverMain
    // routes it to traceMain before the flag parser; the null fn marks
    // it as listing-only here.
    {"trace", "dump/inspect/validate replayable workload traces",
     nullptr, false, false, false, false},
};

std::string
globalUsage()
{
    std::ostringstream os;
    os << "usage: p5sim <subcommand> [flags]\n\n"
       << "subcommands:\n";
    for (const Subcommand &sub : subcommands) {
        os << "  ";
        os.width(10);
        os << std::left << sub.name;
        os << sub.help << '\n';
    }
    os << "\nRun 'p5sim <subcommand> --help' for the subcommand's "
          "flags.\n";
    return os.str();
}

} // namespace

int
driverMain(int argc, const char *const *argv, std::ostream &out,
           std::ostream &err, std::istream &in)
{
    if (argc < 2) {
        err << globalUsage();
        return 1;
    }
    const std::string name = argv[1];
    if (name == "help" || name == "--help" || name == "-h") {
        out << globalUsage();
        return 0;
    }
    if (name == "trace")
        return traceMain(argc, argv, out, err);

    const Subcommand *sub = nullptr;
    for (const Subcommand &s : subcommands)
        if (name == s.name)
            sub = &s;
    if (!sub) {
        err << "p5sim: unknown subcommand '" << name << "'\n\n"
            << globalUsage();
        return 1;
    }

    Cli cli;
    if (sub->fn == cmdPerf) {
        cli.declare("json", "",
                    "write the fast-forward speedup report here");
        cli.declare("profile-stages", "false",
                    "print the per-stage wall-time breakdown instead");
    } else if (sub->fn == cmdStoreGc) {
        // A pure maintenance command: no experiment config, just the
        // target directory and the dry-run/apply switch.
        cli.declare("store", "",
                    "result-store directory to collect (its ckpt/ "
                    "checkpoint area is scanned too)");
        cli.declare("apply", "false",
                    "actually delete (the default is a dry run)");
        cli.declare("json", "",
                    "also write the reclamation report to this file");
    } else {
        declareExperimentFlags(cli);
        if (sub->pairFlags)
            declarePairFlags(cli);
        if (sub->allocFlags)
            declareAllocFlags(cli);
        if (sub->storeFlags)
            cli.declare("store", "",
                        "persistent content-addressed result store "
                        "directory (created when absent)");
        if (sub->sweepFlag) {
            cli.declareMulti("sweep",
                            "one sweep axis, e.g. --sweep "
                            "core.lmq_entries=4,8,16 (repeatable; the "
                            "cartesian product of all axes runs)");
            cli.declare("resume", "false",
                        "serve points already present in --store from "
                        "disk instead of re-simulating them");
            cli.declare("shard", "",
                        "i/N: run only every Nth point of the product "
                        "starting at i (shards share one --store)");
        }
    }
    cli.setExitOnHelp(false);

    // Strip the subcommand before parsing its flags.
    std::vector<const char *> args;
    args.push_back(argv[0]);
    for (int i = 2; i < argc; ++i)
        args.push_back(argv[i]);
    cli.parse(static_cast<int>(args.size()), args.data());

    if (cli.helpRequested()) {
        out << cli.usage("p5sim " + std::string(sub->name));
        return 0;
    }

    DriverContext ctx;
    ctx.out = &out;
    ctx.err = &err;
    ctx.in = &in;

    ExpConfig config;
    if (sub->fn != cmdPerf && sub->fn != cmdStoreGc) {
        config = buildConfig(cli, ctx);
        ctx.csv = cli.boolean("csv");
    }
    ctx.jsonPath = cli.str("json");

    // Checkpoint/fork is on by default for every experiment command:
    // jobs sharing a warm key warm once and fork, which is invisible
    // in the results (bit-identical stats) and only saves wall clock.
    // --no-checkpoint restores inline warming; --checkpoint-dir adds a
    // persistent area so later *processes* fork too. A sweep with
    // --store and no explicit directory keeps its checkpoints next to
    // its results, under <store>/ckpt.
    std::optional<CkptStore> ckpt_store;
    std::optional<CkptManager> ckpt_mgr;
    if (sub->fn != cmdPerf && sub->fn != cmdStoreGc &&
        !cli.boolean("no-checkpoint")) {
        std::string ckpt_dir = cli.str("checkpoint-dir");
        if (ckpt_dir.empty() && sub->fn == cmdSweep &&
            cli.isSet("store"))
            ckpt_dir = cli.str("store") + "/ckpt";
        ckpt_mgr.emplace();
        if (!ckpt_dir.empty()) {
            ckpt_store.emplace(ckpt_dir);
            ckpt_mgr->setStore(&*ckpt_store);
        }
        config.checkpoints = &*ckpt_mgr;
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

int
driverMainAs(const std::string &subcommand, int argc,
             const char *const *argv)
{
    std::vector<const char *> args;
    args.push_back(argc > 0 ? argv[0] : "p5sim");
    args.push_back(subcommand.c_str());
    for (int i = 1; i < argc; ++i)
        args.push_back(argv[i]);
    return driverMain(static_cast<int>(args.size()), args.data());
}

// --- perf report implementation ---------------------------------------
// (Shared with bench_sim_perf's legacy --p5sim_perf_json flag.)

namespace {

/** One end-to-end case in the speedup report. */
struct PerfCase
{
    const char *name;
    UbenchId primary;
    UbenchId secondary;
    int prioP;
    int prioS;
};

/**
 * The report suite. ldint_mem+ldint_mem (4,4) is the headline case
 * (the acceptance floor is a 3x end-to-end speedup there); the
 * compute-bound and mixed pairs — balanced and priority-skewed — pin
 * the "no overhead when there is nothing to skip" end of the spectrum.
 */
constexpr PerfCase report_cases[] = {
    {"ldint_mem+ldint_mem@4,4", UbenchId::LdintMem, UbenchId::LdintMem,
     4, 4},
    {"ldint_mem+ldint_mem@6,2", UbenchId::LdintMem, UbenchId::LdintMem,
     6, 2},
    {"ldint_mem+cpu_int@4,4", UbenchId::LdintMem, UbenchId::CpuInt, 4,
     4},
    {"ldint_mem+cpu_int@2,6", UbenchId::LdintMem, UbenchId::CpuInt, 2,
     6},
    {"cpu_int+cpu_int@4,4", UbenchId::CpuInt, UbenchId::CpuInt, 4, 4},
    {"cpu_int+cpu_int@6,2", UbenchId::CpuInt, UbenchId::CpuInt, 6, 2},
};

struct TimedRun
{
    double wallMs = 0;
    FameResult result;
};

FameParams
endToEndFame()
{
    FameParams fame;
    fame.minRepetitions = 5;
    return fame;
}

TimedRun
timedFameRun(const PerfCase &c, bool fast_forward)
{
    const SyntheticProgram pp = makeUbench(c.primary);
    const SyntheticProgram ps = makeUbench(c.secondary);
    CoreParams core;
    core.fastForward = fast_forward;
    const FameParams fame = endToEndFame();

    TimedRun run;
    const auto t0 = std::chrono::steady_clock::now();
    run.result = runFame(core, &pp, &ps, c.prioP, c.prioS, fame);
    const auto t1 = std::chrono::steady_clock::now();
    run.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return run;
}

bool
sameMeasurement(const FameResult &a, const FameResult &b)
{
    if (a.totalCycles != b.totalCycles || a.converged != b.converged ||
        a.hitCycleLimit != b.hitCycleLimit)
        return false;
    for (size_t t = 0; t < num_hw_threads; ++t) {
        if (a.thread[t].present != b.thread[t].present ||
            a.thread[t].executions != b.thread[t].executions ||
            a.thread[t].accountedCycles != b.thread[t].accountedCycles ||
            a.thread[t].accountedInstrs != b.thread[t].accountedInstrs)
            return false;
    }
    return true;
}

/**
 * Best-of-N timing per mode. Repetitions of the two modes are
 * interleaved with alternating order (turbo/thermal effects favor
 * whichever mode runs first in a back-to-back pair) and the minimum
 * wall time per mode is kept: host-side drift inflates individual runs
 * but never deflates them, so min over order-balanced repetitions is
 * the bias-resistant estimator of the true per-mode cost.
 */
constexpr int report_reps = 4;

// --- chip-level case ---------------------------------------------------

/**
 * The multi-core end-to-end case: a 4-core chip running an 8-thread
 * pinned ldint_mem mix through the allocation engine. Chip
 * fast-forward only fires when every core is idle at once, so this
 * case gates both joint-skip correctness (identical stats across
 * engine modes) and that the chip probe never costs wall clock.
 */
constexpr const char *chip_case_name = "chip4+ldint_mem*8@pinned";
constexpr int chip_case_cores = 4;
constexpr Cycle chip_case_cycles = 300000;

struct ChipTimedRun
{
    double wallMs = 0;
    AllocRunResult result;
};

ChipTimedRun
timedChipRun(bool fast_forward)
{
    const Workload workload = Workload::fromMix(
        "ldint_mem,ldint_mem,ldint_mem,ldint_mem,"
        "ldint_mem,ldint_mem,ldint_mem,ldint_mem");
    ChipParams params;
    params.numCores = chip_case_cores;
    params.core.fastForward = fast_forward;
    Chip chip(params);
    AllocEngine engine(chip, workload, SchedParams{}, 1);

    ChipTimedRun run;
    const auto t0 = std::chrono::steady_clock::now();
    run.result = engine.run(chip_case_cycles);
    const auto t1 = std::chrono::steady_clock::now();
    run.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return run;
}

bool
sameChipMeasurement(const AllocRunResult &a, const AllocRunResult &b)
{
    if (a.cycles != b.cycles || a.quanta != b.quanta ||
        a.migrations != b.migrations || a.committed != b.committed ||
        a.checkViolations != b.checkViolations ||
        a.threads.size() != b.threads.size())
        return false;
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        if (a.threads[t].committed != b.threads[t].committed ||
            a.threads[t].l2Misses != b.threads[t].l2Misses ||
            a.threads[t].cyclesScheduled != b.threads[t].cyclesScheduled)
            return false;
    }
    return true;
}

// --- checkpoint/fork case ----------------------------------------------

/**
 * The checkpoint/fork case: one pair-mix measured across the full 6x6
 * priority matrix, cold (every pair re-simulates the warm-up) versus
 * checkpointed (the first pair warms once and the other 35 fork that
 * snapshot in memory). Both arms run with fast-forward enabled, so
 * the recorded speedup is over the fast-forward-only path. The FAME
 * parameters are warm-heavy — a deep warm-up feeding a short measured
 * window, the steady-state regime the checkpoint engine exists for.
 * End to end the cold arm costs K*W + sum(M_i) against W + sum(R+M_i)
 * forked, so the speedup is set by how much of the run is redundant
 * warm-up: the warm depth below makes warm-up the majority cost, as
 * in a long-warm FAME campaign; presets with shallow warm-ups
 * amortize proportionally less (the warm phase always runs at the
 * canonical (4,4) pair, which fast-forward already makes cheap, while
 * the measured region of skewed pairs is irreducible per-pair work).
 */
constexpr const char *ckpt_case_name =
    "ckpt:ldint_mem+ldint_mem@matrix36";
constexpr const char *ckpt_case_key = "perf:ckpt:ldint_mem+ldint_mem";
constexpr int ckpt_case_prios = 6;
constexpr int ckpt_case_pairs = ckpt_case_prios * ckpt_case_prios;
constexpr int ckpt_case_reps = 2;

FameParams
ckptCaseFame()
{
    FameParams fame;
    fame.warmupRepetitions = 160;
    fame.minRepetitions = 3;
    fame.maiv = 0.10;
    return fame;
}

struct CkptTimedRun
{
    double wallMs = 0;
    std::vector<FameResult> results;
};

/**
 * Sweep the priority matrix once; with @p ckpts the first pair warms
 * and every later pair forks, without it each pair warms from scratch
 * (the production cold path, fast-forward on in both arms).
 */
CkptTimedRun
timedMatrixRun(CkptManager *ckpts)
{
    const SyntheticProgram pp = makeUbench(UbenchId::LdintMem);
    const SyntheticProgram ps = makeUbench(UbenchId::LdintMem);
    CoreParams core;
    core.fastForward = true;
    const FameParams fame = ckptCaseFame();

    CkptTimedRun run;
    run.results.reserve(ckpt_case_pairs);
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 1; p <= ckpt_case_prios; ++p)
        for (int s = 1; s <= ckpt_case_prios; ++s)
            run.results.push_back(
                runFame(core, &pp, &ps, p, s, fame, ckpts,
                        ckpts ? ckpt_case_key : ""));
    const auto t1 = std::chrono::steady_clock::now();
    run.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return run;
}

bool
sameMatrixMeasurement(const CkptTimedRun &a, const CkptTimedRun &b)
{
    if (a.results.size() != b.results.size())
        return false;
    for (std::size_t i = 0; i < a.results.size(); ++i)
        if (!sameMeasurement(a.results[i], b.results[i]))
            return false;
    return true;
}

} // namespace

int
writePerfReport(const std::string &path, std::ostream &err)
{
    std::ofstream os(path);
    if (!os) {
        err << "p5sim perf: cannot open '" << path << "'\n";
        return 1;
    }

    bool all_identical = true;
    JsonWriter w(os);
    w.beginObject();
    w.member("experiment", "bench_sim_perf");
    w.key("cases");
    w.beginArray();
    for (const PerfCase &c : report_cases) {
        // Warm one fast run so first-touch costs (program build, page
        // sets) don't pollute the slow/fast ratio, then measure the
        // two modes interleaved and keep each mode's best repetition.
        timedFameRun(c, true);
        TimedRun fast, slow;
        bool identical = true;
        for (int rep = 0; rep < report_reps; ++rep) {
            const bool slow_first = (rep % 2) == 0;
            TimedRun s, f;
            if (slow_first) {
                s = timedFameRun(c, false);
                f = timedFameRun(c, true);
            } else {
                f = timedFameRun(c, true);
                s = timedFameRun(c, false);
            }
            identical =
                identical && sameMeasurement(f.result, s.result);
            if (rep == 0 || s.wallMs < slow.wallMs)
                slow = s;
            if (rep == 0 || f.wallMs < fast.wallMs)
                fast = f;
        }
        all_identical = all_identical && identical;

        w.beginObject();
        w.member("name", c.name);
        w.member("simCyclesFast",
                 static_cast<std::uint64_t>(fast.result.totalCycles));
        w.member("simCyclesSlow",
                 static_cast<std::uint64_t>(slow.result.totalCycles));
        w.member("ipcTotal", fast.result.totalIpc());
        w.member("wallMsFast", fast.wallMs);
        w.member("wallMsSlow", slow.wallMs);
        w.member("speedup", slow.wallMs / fast.wallMs);
        w.member("identicalStats", identical);
        w.endObject();

        err << c.name << ": " << slow.wallMs << " ms -> " << fast.wallMs
            << " ms (" << slow.wallMs / fast.wallMs << "x)"
            << (identical ? "" : "  STATS DEVIATE") << '\n';
    }

    {
        // Trace-replay case: the same pair driven from a dumped trace
        // versus the synthetic generator, fast-forward on in both
        // arms. The stream captures its fetch table at construction
        // either way, so replay must hold generator parity in wall
        // clock ("speedup" = synthetic/replay, gated by the parity
        // floor) and stay bit-identical in stats. One recorded
        // execution keeps the replay table the same size as the
        // generator's body: the case gates the per-fetch dispatch
        // cost of the InstrSource seam, not the (inherent, size-
        // proportional) cache footprint of a deeply unrolled trace.
        const char *trace_case_name = "trace:cpu_int+cpu_int@4,4";
        const std::string trace_path = path + ".trace";
        const SyntheticProgram sp = makeUbench(UbenchId::CpuInt);
        dumpTrace(sp, 1, trace_path);
        const std::unique_ptr<TraceProgram> tp = loadTrace(trace_path);
        std::remove(trace_path.c_str());

        CoreParams core;
        core.fastForward = true;
        const FameParams fame = endToEndFame();
        auto timedArm = [&core, &fame](const InstrSource *prog) {
            TimedRun run;
            const auto t0 = std::chrono::steady_clock::now();
            run.result = runFame(core, prog, prog, 4, 4, fame);
            const auto t1 = std::chrono::steady_clock::now();
            run.wallMs = std::chrono::duration<double, std::milli>(
                             t1 - t0)
                             .count();
            return run;
        };

        timedArm(tp.get()); // first-touch warm
        TimedRun synth, replay;
        bool identical = true;
        for (int rep = 0; rep < report_reps; ++rep) {
            const bool synth_first = (rep % 2) == 0;
            TimedRun s, r;
            if (synth_first) {
                s = timedArm(&sp);
                r = timedArm(tp.get());
            } else {
                r = timedArm(tp.get());
                s = timedArm(&sp);
            }
            identical =
                identical && sameMeasurement(s.result, r.result);
            if (rep == 0 || s.wallMs < synth.wallMs)
                synth = s;
            if (rep == 0 || r.wallMs < replay.wallMs)
                replay = r;
        }
        all_identical = all_identical && identical;

        w.beginObject();
        w.member("name", trace_case_name);
        w.member("simCyclesFast",
                 static_cast<std::uint64_t>(replay.result.totalCycles));
        w.member("simCyclesSlow",
                 static_cast<std::uint64_t>(synth.result.totalCycles));
        w.member("ipcTotal", replay.result.totalIpc());
        w.member("wallMsFast", replay.wallMs);
        w.member("wallMsSlow", synth.wallMs);
        w.member("speedup", synth.wallMs / replay.wallMs);
        w.member("identicalStats", identical);
        w.endObject();

        err << trace_case_name << ": " << synth.wallMs << " ms -> "
            << replay.wallMs << " ms ("
            << synth.wallMs / replay.wallMs << "x)"
            << (identical ? "" : "  STATS DEVIATE") << '\n';
    }

    {
        // The chip case follows the same warm + order-balanced
        // min-of-N protocol as the single-core pairs above.
        timedChipRun(true);
        ChipTimedRun fast, slow;
        bool identical = true;
        for (int rep = 0; rep < report_reps; ++rep) {
            const bool slow_first = (rep % 2) == 0;
            ChipTimedRun s, f;
            if (slow_first) {
                s = timedChipRun(false);
                f = timedChipRun(true);
            } else {
                f = timedChipRun(true);
                s = timedChipRun(false);
            }
            identical =
                identical && sameChipMeasurement(f.result, s.result);
            if (rep == 0 || s.wallMs < slow.wallMs)
                slow = std::move(s);
            if (rep == 0 || f.wallMs < fast.wallMs)
                fast = std::move(f);
        }
        all_identical = all_identical && identical;

        w.beginObject();
        w.member("name", chip_case_name);
        w.member("simCyclesFast",
                 static_cast<std::uint64_t>(fast.result.cycles));
        w.member("simCyclesSlow",
                 static_cast<std::uint64_t>(slow.result.cycles));
        w.member("ipcTotal", fast.result.aggregateIpc);
        w.member("wallMsFast", fast.wallMs);
        w.member("wallMsSlow", slow.wallMs);
        w.member("speedup", slow.wallMs / fast.wallMs);
        w.member("identicalStats", identical);
        w.member("migrations",
                 static_cast<std::uint64_t>(fast.result.migrations));
        w.endObject();

        err << chip_case_name << ": " << slow.wallMs << " ms -> "
            << fast.wallMs << " ms (" << slow.wallMs / fast.wallMs
            << "x)" << (identical ? "" : "  STATS DEVIATE") << '\n';
    }

    {
        // Checkpoint/fork over the priority matrix: same warm +
        // order-balanced min-of-N protocol. Each checkpointed
        // repetition gets a fresh CkptManager so every repetition
        // pays exactly one warm-up (1 warm + 35 in-memory forks),
        // never a warm image cached by an earlier repetition. The
        // first-touch warm run uses the forked arm: it constructs
        // the same programs and cores at a fraction of the cold
        // arm's wall clock.
        {
            CkptManager warm_mgr;
            timedMatrixRun(&warm_mgr);
        }
        CkptTimedRun cold, forked;
        bool identical = true;
        std::uint64_t warms = 0, forks = 0;
        for (int rep = 0; rep < ckpt_case_reps; ++rep) {
            const bool cold_first = (rep % 2) == 0;
            CkptManager mgr;
            CkptTimedRun c, f;
            if (cold_first) {
                c = timedMatrixRun(nullptr);
                f = timedMatrixRun(&mgr);
            } else {
                f = timedMatrixRun(&mgr);
                c = timedMatrixRun(nullptr);
            }
            identical = identical && sameMatrixMeasurement(c, f);
            warms = mgr.warms();
            forks = mgr.memForks();
            if (rep == 0 || c.wallMs < cold.wallMs)
                cold = std::move(c);
            if (rep == 0 || f.wallMs < forked.wallMs)
                forked = std::move(f);
        }
        identical = identical && warms == 1 &&
                    forks == ckpt_case_pairs - 1;
        all_identical = all_identical && identical;

        std::uint64_t matrix_cycles = 0;
        for (const FameResult &r : forked.results)
            matrix_cycles += r.totalCycles;

        w.beginObject();
        w.member("name", ckpt_case_name);
        w.member("checkpointed", true);
        w.member("pairs", static_cast<std::int64_t>(ckpt_case_pairs));
        w.member("warms", static_cast<std::int64_t>(warms));
        w.member("memForks", static_cast<std::int64_t>(forks));
        w.member("simCyclesMatrix", matrix_cycles);
        w.member("wallMsCold", cold.wallMs);
        w.member("wallMsCkpt", forked.wallMs);
        w.member("speedup", cold.wallMs / forked.wallMs);
        w.member("identicalStats", identical);
        w.endObject();

        err << ckpt_case_name << ": " << cold.wallMs << " ms -> "
            << forked.wallMs << " ms ("
            << cold.wallMs / forked.wallMs << "x)"
            << (identical ? "" : "  STATS DEVIATE") << '\n';
    }
    w.endArray();
    w.endObject();
    os << '\n';

    if (!all_identical) {
        err << "p5sim perf: fast-forward stats deviated\n";
        return 1;
    }
    return 0;
}

int
profileStages(std::ostream &out)
{
    constexpr Cycle profile_cycles = 500000;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-26s %10s %10s %10s %10s %10s  %9s %9s %9s\n",
                  "case", "complet ms", "issue ms", "commit ms",
                  "decode ms", "probe ms", "ticks", "probes",
                  "skipped");
    out << line;
    for (const PerfCase &c : report_cases) {
        const SyntheticProgram pp = makeUbench(c.primary);
        const SyntheticProgram ps = makeUbench(c.secondary);
        CoreParams params;
        SmtCore core(params);
        SmtCore::StageProfile prof;
        core.setStageProfile(&prof);
        core.attachThread(0, &pp, c.prioP);
        core.attachThread(1, &ps, c.prioS);
        core.run(profile_cycles);
        const auto ms = [](std::uint64_t ns) { return ns / 1e6; };
        std::snprintf(
            line, sizeof(line),
            "%-26s %10.3f %10.3f %10.3f %10.3f %10.3f  %9llu %9llu "
            "%9llu\n",
            c.name, ms(prof.completionsNs), ms(prof.issueNs),
            ms(prof.commitNs), ms(prof.decodeNs), ms(prof.probeNs),
            static_cast<unsigned long long>(prof.timedTicks),
            static_cast<unsigned long long>(core.fastForwardProbes()),
            static_cast<unsigned long long>(core.idleCyclesSkipped()));
        out << line;
    }
    return 0;
}

} // namespace p5
