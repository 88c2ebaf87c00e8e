#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "config/config.hh"
#include "core/smt_core.hh"
#include "driver/commands.hh"
#include "fame/sim_runner.hh"
#include "sched/monitor.hh"
#include "store/result_store.hh"

namespace p5 {

namespace {

/** The FAME pair the run and sweep subcommands simulate. */
struct PairJob
{
    SimJob job;
    std::string nameP; ///< benchmark or recorded-trace name
    std::string nameS; ///< likewise; "none" in single-thread mode
    int prioP = 0;
    int prioS = 0; ///< --prio-s, reported even in single-thread mode
    bool hasSecondary = false;

    /** "NAME_P + NAME_S at (P,S)", the head of a table title. */
    std::string
    label() const
    {
        return nameP + " + " + nameS + " at (" + std::to_string(prioP) +
               "," + std::to_string(prioS) + ")";
    }

    /** The report members naming the pair. */
    void
    writeMembers(JsonWriter &w) const
    {
        w.member("primary", nameP);
        w.member("secondary", nameS);
        w.member("prioP", prioP);
        w.member("prioS", prioS);
    }
};

/**
 * The pair the Pair flags name under @p config: --primary and
 * --secondary ('none' = single-thread mode) at --prio-p/--prio-s,
 * where workload.trace(_secondary) replaces the synthetic benchmark
 * with a recorded trace whose fingerprint rides in the job key.
 */
PairJob
pairJob(const Cli &cli, const ExpConfig &config)
{
    PairJob pair;
    pair.prioP = static_cast<int>(cli.integer("prio-p"));
    pair.prioS = static_cast<int>(cli.integer("prio-s"));
    const std::string secondary = cli.str("secondary");
    pair.hasSecondary = !secondary.empty() && secondary != "none";

    auto spec = [&config](const std::string &trace,
                          const std::string &name, std::string &shown) {
        if (trace.empty()) {
            shown = name;
            return ProgramSpec::ubench(ubenchFromName(name),
                                       config.ubenchScale);
        }
        ProgramSpec s = ProgramSpec::trace(trace);
        shown = s.traceName;
        return s;
    };
    const ProgramSpec spec_p =
        spec(config.workloadTrace, cli.str("primary"), pair.nameP);
    if (pair.hasSecondary) {
        pair.job = SimJob::famePair(
            spec_p,
            spec(config.workloadTraceSecondary, secondary, pair.nameS),
            pair.prioP, pair.prioS, config.core, config.fame);
    } else {
        pair.nameS = "none";
        pair.job = SimJob::fameSingle(spec_p, config.core, config.fame,
                                      pair.prioP);
    }
    pair.job.configTag = config.configTag;
    // Warm identity: configs that differ only in measurement knobs
    // (e.g. a fame.min_repetitions sweep axis) share one warm key and
    // fork a single warm-up between them.
    pair.job.warmTag = config.warmTag;
    return pair;
}

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

/** The --sweep axes, each path and each value named once. */
std::vector<SweepAxis>
sweepAxes(const Cli &cli)
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
            // A repeated value would run (and print) the same point twice.
            if (std::find(axis.values.begin(), axis.values.end(), v) !=
                axis.values.end())
                fatal("duplicate value '%s' in --sweep axis '%s': each "
                      "value may be swept only once",
                      v.c_str(), axis.path.c_str());
            axis.values.push_back(v);
        }
        axes.push_back(std::move(axis));
    }
    if (axes.empty())
        fatal("sweep requires at least one --sweep key=v1,v2,... axis");
    return axes;
}

} // namespace

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
    const PairJob pair = pairJob(cli, config);
    const std::unique_ptr<InstrSource> prog_p = pair.job.primary.build();
    const std::unique_ptr<InstrSource> prog_s =
        pair.hasSecondary ? pair.job.secondary.build() : nullptr;

    // runFame()'s canonical-warm protocol on a core this command keeps
    // for the stats dump below: attach at the canonical priority, warm
    // (or fork a checkpoint of that warm state), then switch to the
    // requested pair at the measurement boundary, so the stats match
    // the batch producers'.
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
    runner.warmOrFork(core, config.checkpoints,
                      config.checkpoints ? pair.job.warmKey() : "");
    core.setPriorityPair(pair.prioP, prog_s ? pair.prioS : 0);
    const FameResult result = runner.measure(core, 0);

    Table t("p5sim run: " + pair.label());
    t.setColumns({"thread", "benchmark", "priority", "executions",
                  "avg exec cycles", "IPC"});
    t.addRow({"P", pair.nameP, std::to_string(pair.prioP),
              std::to_string(result.thread[0].executions),
              Table::fmt(result.thread[0].avgExecTime(), 1),
              Table::fmt(result.thread[0].avgIpc(), 3)});
    if (pair.hasSecondary)
        t.addRow({"S", pair.nameS, std::to_string(pair.prioS),
                  std::to_string(result.thread[1].executions),
                  Table::fmt(result.thread[1].avgExecTime(), 1),
                  Table::fmt(result.thread[1].avgIpc(), 3)});
    printTable(ctx, t);

    writeReport(ctx, config, [&](JsonWriter &w) {
        w.beginObject();
        pair.writeMembers(w);
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

/**
 * Fan the cartesian product of the --sweep axes out as one SimJob
 * batch through the thread pool, then aggregate per-point results
 * (with each point's own fingerprint) into a single table + report.
 */
int
cmdSweep(const Cli &cli, DriverContext &ctx, ExpConfig &base)
{
    const std::vector<SweepAxis> axes = sweepAxes(cli);

    const std::string store_dir = cli.str("store");
    const bool resume = cli.boolean("resume");
    if (resume && store_dir.empty())
        fatal("--resume requires --store DIR (there is nothing to "
              "resume from without a store)");
    std::int64_t shard_index = 0;
    std::int64_t shard_count = 1;
    if (cli.isSet("shard")) {
        const std::string spec = cli.str("shard");
        const auto slash = spec.find('/');
        if (slash == std::string::npos ||
            parseInt64(spec.substr(0, slash), shard_index) !=
                ParseStatus::Ok ||
            parseInt64(spec.substr(slash + 1), shard_count) !=
                ParseStatus::Ok ||
            shard_count < 1 || shard_index < 0 ||
            shard_index >= shard_count)
            fatal("--shard expects i/N with 0 <= i < N, got '%s'",
                  spec.c_str());
    }

    // Names and priorities come from the base config; each point's
    // job from its own (an axis may swap in a trace).
    const PairJob pair = pairJob(cli, base);

    // Enumerate the cartesian product; the last axis varies fastest.
    // Shard by position in the FULL product: every shard enumerates
    // (and fingerprints) the same point list and keeps a disjoint
    // residue class, so shard i/N of a sweep sees bit-identical
    // per-point fingerprints to the unsharded run and the N shards
    // partition it exactly.
    std::size_t points_total = 1;
    for (const SweepAxis &axis : axes)
        points_total *= axis.values.size();
    std::vector<SweepPoint> points;
    for (std::size_t i = 0; i < points_total; ++i) {
        SweepPoint pt;
        pt.coords.resize(axes.size());
        for (std::size_t a = axes.size(), rest = i; a-- > 0;) {
            const std::vector<std::string> &values = axes[a].values;
            pt.coords[a] = {axes[a].path, values[rest % values.size()]};
            rest /= values.size();
        }
        pt.config = base;
        {
            ConfigTree tree(pt.config);
            for (const auto &[path, value] : pt.coords)
                tree.set(path, value);
            tree.validate();
            tree.stampTag();
        }
        if (static_cast<std::int64_t>(i) % shard_count == shard_index)
            points.push_back(std::move(pt));
    }

    // One batch: every point becomes a job, and the pool (plus the
    // result cache) fans them out together.
    std::vector<SimJob> batch;
    batch.reserve(points.size());
    for (const SweepPoint &pt : points)
        batch.push_back(pairJob(cli, pt.config).job);

    std::optional<ResultStore> store;
    std::vector<StoreProvenance> provenance;
    std::size_t stored_before = 0;
    if (!store_dir.empty()) {
        store.emplace(store_dir);
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
        runner.setStore(&*store, resume);
    runner.setCheckpoints(base.checkpoints);
    const std::vector<SimResult> results =
        runner.run(batch, store ? &provenance : nullptr);

    Table t("p5sim sweep: " + pair.label() + ", " +
            std::to_string(points.size()) + " points");
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

    writeReport(ctx, base, [&](JsonWriter &w) {
        w.beginObject();
        pair.writeMembers(w);
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
        // variants of the same sweep; run-mode state lives in these
        // separate members.
        if (shard_count > 1) {
            w.key("shard");
            w.beginObject();
            w.member("index", static_cast<int>(shard_index));
            w.member("count", static_cast<int>(shard_count));
            w.member("pointsTotal",
                     static_cast<std::uint64_t>(points_total));
            w.member("pointsKept",
                     static_cast<std::uint64_t>(points.size()));
            w.endObject();
        }
        if (store) {
            w.key("store");
            w.beginObject();
            w.member("dir", store->dir());
            w.member("schemaVersion", store->schemaVersion());
            w.member("resume", resume);
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
    writeReport(ctx, config, [&](JsonWriter &w) { writeJson(w, data); });
    return 0;
}

} // namespace p5
