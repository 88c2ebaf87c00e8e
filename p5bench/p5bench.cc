/**
 * @file
 * p5bench: the p5sim benchmark.
 *
 * Runs one workload in-process for a fixed wall-clock budget, checks
 * every output against the reference recorded in reference.json, and
 * prints its metrics; the last stdout line is one JSON object. The
 * workloads, metrics and the layer -> metric -> workload map are
 * documented in README.md next to this file.
 *
 *   p5bench --workload W --seed N --seconds S --trace 0|1
 *           [--reference FILE] [--work-dir DIR]
 *   p5bench --record FILE [--work-dir DIR]
 *
 * Untraced runs (--trace 0) report the end-to-end metrics. A traced
 * run (--trace 1) does one untraced pass, then the same work again
 * split into layer calls with a span around each call, and reports
 * per-layer self times and counts. Spans are timed from outside the
 * library, around its public functions only.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt.hh"
#include "ckpt/ckpt_io.hh"
#include "ckpt/ckpt_manager.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "config/config.hh"
#include "core/smt_core.hh"
#include "driver/driver.hh"
#include "exp/experiments.hh"
#include "exp/report.hh"
#include "fame/fame.hh"
#include "fame/sim_job.hh"
#include "fame/sim_runner.hh"
#include "store/result_store.hh"

namespace fs = std::filesystem;
using namespace p5;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Host user+sys CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

/**
 * Reset the process's peak resident set (Linux: "5" > clear_refs), so
 * the next peakRssMb() covers only what ran since. Returns false where
 * the kernel does not support it.
 */
bool
resetPeakRss()
{
    std::ofstream os("/proc/self/clear_refs");
    os << "5";
    os.flush();
    return static_cast<bool>(os);
}

/** Peak resident set (VmHWM) in MB, since start or the last reset. */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line))
        if (line.starts_with("VmHWM:"))
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB
}

/** FNV-1a 64-bit digest as 16 hex digits (output identity, not security). */
std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Quartiles as Python's statistics.quantiles(values, n=4) gives them. */
struct Quartiles
{
    double q1 = 0.0, median = 0.0, q3 = 0.0;
};

Quartiles
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    Quartiles q;
    if (v.empty())
        return q;
    if (v.size() == 1) {
        q.q1 = q.median = q.q3 = v[0];
        return q;
    }
    // "exclusive" method: position m*(n+1)/4, 1-based, clamped.
    auto at = [&](double pos) {
        const double n = static_cast<double>(v.size());
        pos = std::clamp(pos, 1.0, n);
        const auto lo = static_cast<std::size_t>(pos) - 1;
        const double frac = pos - std::floor(pos);
        if (lo + 1 >= v.size())
            return v.back();
        return v[lo] + frac * (v[lo + 1] - v[lo]);
    };
    const double n1 = static_cast<double>(v.size() + 1);
    q.q1 = at(n1 / 4.0);
    q.median = at(n1 / 2.0);
    q.q3 = at(3.0 * n1 / 4.0);
    return q;
}

// --- reference outputs -----------------------------------------------

/**
 * Expected outputs by section and key, recorded from a trusted build
 * with --record. In record mode check() stores instead of comparing.
 * Comparison is by key, so the submission order a seed picks never
 * matters.
 */
class Checker
{
  public:
    void
    load(const std::string &path)
    {
        ref_.clear();
        const JsonValue root = parseJsonFile(path);
        for (const auto &[section, entries] : root.members())
            for (const auto &[key, value] : entries.members())
                ref_[section][key] = value.asString();
    }

    void
    save(const std::string &path) const
    {
        std::ofstream os(path);
        JsonWriter w(os);
        w.beginObject();
        for (const auto &[section, entries] : ref_) {
            w.key(section);
            w.beginObject();
            for (const auto &[key, value] : entries)
                w.member(key, value);
            w.endObject();
        }
        w.endObject();
        os << '\n';
        if (!os)
            throw std::runtime_error("cannot write " + path);
    }

    void setRecord(bool record) { record_ = record; }

    /** One operation: passes when @p ok and @p value matches. */
    bool
    check(const std::string &section, const std::string &key,
          const std::string &value, bool ok = true)
    {
        ++attempted;
        if (record_) {
            ref_[section][key] = value;
            if (!ok)
                ++failed;
            return ok;
        }
        const auto s = ref_.find(section);
        const bool match = ok && s != ref_.end() &&
                           s->second.count(key) &&
                           s->second.at(key) == value;
        if (!match) {
            ++failed;
            std::cerr << "p5bench: mismatch in " << section << " at "
                      << key << "\n";
        }
        return match;
    }

    /** One operation checked in place rather than against the reference. */
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "p5bench: failed: " << what << "\n";
        }
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    bool record_ = false;
    std::map<std::string, std::map<std::string, std::string>> ref_;
};

/** Every field of a FameResult, exactly (integers and flags). */
std::string
fameFields(const FameResult &r)
{
    std::ostringstream os;
    for (const ThreadMeasurement &t : r.thread)
        os << t.present << ':' << t.executions << ':' << t.accountedCycles
           << ':' << t.accountedInstrs << '|';
    os << r.totalCycles << '|' << r.converged << '|' << r.hitCycleLimit;
    return os.str();
}

std::uint64_t
accountedInstrs(const FameResult &r)
{
    std::uint64_t n = 0;
    for (const ThreadMeasurement &t : r.thread)
        n += t.accountedInstrs;
    return n;
}

// --- spans -----------------------------------------------------------

/**
 * In-memory span recorder for the traced run. All spans are opened on
 * the benchmark's own thread. innerNs is time a span's untraced
 * children spent (the core stages a StageProfile timed), subtracted
 * from its self time like a child span's duration.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        std::int64_t innerNs = 0;
    };

    /** A disabled tracer records nothing; its spans cost one branch. */
    explicit Tracer(std::string run_id, bool enabled = true)
        : runId_(std::move(run_id)), enabled_(enabled)
    {}

    bool enabled() const { return enabled_; }

    int
    open(const std::string &name)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({name, nowNs(), 0, current_, 0});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    void
    close(int idx)
    {
        if (idx < 0)
            return;
        spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
        current_ = spans_[static_cast<std::size_t>(idx)].parent;
    }

    void
    addInner(int idx, std::int64_t ns)
    {
        if (idx >= 0)
            spans_[static_cast<std::size_t>(idx)].innerNs += ns;
    }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const std::string &name) : t_(t), idx_(t.open(name))
        {}
        ~Scope() { t_.close(idx_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        int index() const { return idx_; }

      private:
        Tracer &t_;
        int idx_;
    };

    /** Self time (ns) summed over every span named @p name. */
    double
    selfNs(const std::string &name) const
    {
        std::vector<std::int64_t> child(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.endNs - s.startNs;
        double total = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                total += static_cast<double>(spans_[i].endNs -
                                             spans_[i].startNs -
                                             child[i] - spans_[i].innerNs);
        return total;
    }

    /** Total duration (ns) and count of spans named @p name. */
    std::pair<double, std::size_t>
    total(const std::string &name) const
    {
        double ns = 0.0;
        std::size_t n = 0;
        for (const Span &s : spans_)
            if (s.name == name) {
                ns += static_cast<double>(s.endNs - s.startNs);
                ++n;
            }
        return {ns, n};
    }

    /** Chrome trace-event JSON (Perfetto and chrome://tracing open it). */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        JsonWriter w(os, 0);
        w.beginObject();
        w.key("traceEvents");
        w.beginArray();
        const std::int64_t t0 = spans_.empty() ? 0 : spans_[0].startNs;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.member("name", s.name);
            w.member("cat", s.name.substr(0, s.name.find('.')));
            w.member("ph", "X");
            w.member("ts", static_cast<double>(s.startNs - t0) / 1e3);
            w.member("dur", static_cast<double>(s.endNs - s.startNs) / 1e3);
            w.member("pid", 1);
            w.member("tid", 1);
            w.key("args");
            w.beginObject();
            w.member("span", static_cast<std::int64_t>(i));
            w.member("parent", static_cast<std::int64_t>(s.parent));
            w.member("run", runId_);
            w.member("inner_us", static_cast<double>(s.innerNs) / 1e3);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << '\n';
    }

  private:
    std::string runId_;
    bool enabled_;
    std::vector<Span> spans_;
    int current_ = -1;
};

// --- shared workload plumbing ----------------------------------------

/** What one timed pass of a workload measured. */
struct Pass
{
    double wallS = 0.0;
    double cpuS = 0.0;

    /** The same times scaled to the reference host speed (untraced runs). */
    double scaledWallS = 0.0;
    double scaledCpuS = 0.0;

    /** Committed simulated instructions, where the results are seen. */
    double instrs = 0.0;
};

/** Counts of a workload's own layer use, from an untraced pass. */
struct LayerCounts
{
    double cacheHits = 0, cacheMisses = 0;
    double warms = 0, memForks = 0, storeForks = 0;
    double storeWrites = 0, storeHits = 0, storeQuarantined = 0;
    double storeFiles = 0, storeFileBytes = 0, storeDiskBytes = 0;
    unsigned workers = 1;
};

/** Per-layer measurements of the layer walk (see walkJobs). */
struct WalkStats
{
    SmtCore::StageProfile prof;
    double cycles = 0, skipped = 0, probes = 0;
    double warmCycles = 0, measureCycles = 0;
    double imageBytes = 0, images = 0;
};

/** One driverMain call: its return code and captured stdout/stderr. */
struct DriverRun
{
    int rc = 0;
    std::string out, err;
};

DriverRun
runDriver(const std::vector<std::string> &args)
{
    std::vector<const char *> argv{"p5sim"};
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    std::ostringstream o, e;
    DriverRun r;
    r.rc = driverMain(static_cast<int>(argv.size()), argv.data(), o, e);
    r.out = o.str();
    r.err = e.str();
    return r;
}

/** Add the driver's "checkpoints: W warmed, M forked ..., S restored" line. */
void
addCkptCounts(const std::string &err, LayerCounts &c)
{
    const auto pos = err.find("checkpoints: ");
    if (pos == std::string::npos)
        return;
    unsigned long long w = 0, m = 0, s = 0;
    if (std::sscanf(err.c_str() + pos,
                    "checkpoints: %llu warmed, %llu forked in-memory, "
                    "%llu restored from store",
                    &w, &m, &s) == 3) {
        c.warms += static_cast<double>(w);
        c.memForks += static_cast<double>(m);
        c.storeForks += static_cast<double>(s);
    }
}

/** ExpConfig through the config layer, as the driver builds one. */
ExpConfig
makeConfig(bool fast, unsigned jobs,
           const std::vector<std::pair<std::string, std::string>> &sets = {})
{
    ExpConfig c = fast ? ExpConfig::fast() : ExpConfig{};
    ConfigTree tree(c);
    tree.set("exp.jobs", std::to_string(jobs));
    for (const auto &[path, value] : sets)
        tree.set(path, value);
    tree.validate();
    tree.stampTag();
    return c;
}

/** One job of the layer walk, described before its config exists. */
struct WalkItem
{
    bool fast = false;
    std::vector<std::pair<std::string, std::string>> sets;
    UbenchId primary = UbenchId::CpuInt;
    UbenchId secondary = UbenchId::CpuInt;
    bool single = false;
    int prioP = default_priority;
    int prioS = default_priority;
};

SimJob
jobFor(const WalkItem &it, const ExpConfig &c)
{
    const ProgramSpec p = ProgramSpec::ubench(it.primary, c.ubenchScale);
    SimJob job =
        it.single
            ? SimJob::fameSingle(p, c.core, c.fame, it.prioP)
            : SimJob::famePair(p,
                               ProgramSpec::ubench(it.secondary,
                                                   c.ubenchScale),
                               it.prioP, it.prioS, c.core, c.fame);
    job.configTag = c.configTag;
    job.warmTag = c.warmTag;
    return job;
}

std::uint64_t
stageNs(const SmtCore::StageProfile &p)
{
    return p.completionsNs + p.issueNs + p.commitNs + p.decodeNs + p.probeNs;
}

/**
 * The layer walk: each job split into the calls SimJob::execute and
 * runFame make — ConfigTree, ProgramSpec::build, SmtCore with a
 * StageProfile, FameRunner::runWarmup inside CkptManager::acquire,
 * SmtCore::saveState / restoreState, FameRunner::measure — then a
 * ResultStore put and load. Each result is checked against the
 * reference and the store round trip against the result. With a
 * disabled tracer the same calls run without spans or StageProfile,
 * which is what trace.overhead_pct compares against.
 */
void
walkJobs(const std::vector<WalkItem> &items, const std::string &store_dir,
         Tracer &tr, Checker &chk, WalkStats &ws)
{
    fs::remove_all(store_dir);
    ResultStore store(store_dir);
    CkptStore ckpt_store(store_dir + "/ckpt");
    CkptManager mgr;
    mgr.setStore(&ckpt_store);

    for (const WalkItem &it : items) {
        Tracer::Scope job_span(tr, "job");
        ExpConfig c;
        {
            Tracer::Scope s(tr, "config");
            c = makeConfig(it.fast, 1, it.sets);
        }
        const SimJob job = jobFor(it, c);
        std::unique_ptr<InstrSource> prog_p, prog_s;
        {
            Tracer::Scope s(tr, "program.build");
            prog_p = job.primary.build();
            if (!it.single)
                prog_s = job.secondary.build();
        }

        SmtCore core(c.core);
        core.attachThread(0, prog_p.get(), canonical_warm_priority);
        if (prog_s)
            core.attachThread(1, prog_s.get(), canonical_warm_priority);
        SmtCore::StageProfile prof;
        if (tr.enabled())
            core.setStageProfile(&prof);
        FameRunner runner(c.fame);

        const std::string warm_key = job.warmKey();
        CkptManager::Acquired acq;
        {
            Tracer::Scope s(tr, "ckpt.acquire");
            acq = mgr.acquire(warm_key, [&]() -> Checkpoint {
                {
                    Tracer::Scope w(tr, "fame.warm");
                    runner.runWarmup(core);
                    tr.addInner(w.index(),
                                static_cast<std::int64_t>(stageNs(prof)));
                }
                Tracer::Scope sv(tr, "ckpt.save");
                Checkpoint ck;
                ck.warmKey = warm_key;
                ck.fingerprint = ckptFingerprintHex(warm_key);
                ck.warmCycles = core.cycle();
                CkptWriter wr;
                core.saveState(wr);
                ck.state = wr.data();
                return ck;
            });
        }
        Cycle from = 0;
        std::uint64_t skipped0 = 0, probes0 = 0;
        if (acq.created) {
            ws.warmCycles += static_cast<double>(core.cycle());
            ws.imageBytes += static_cast<double>(acq.ckpt->state.size());
            ws.images += 1;
        } else {
            Tracer::Scope s(tr, "ckpt.restore");
            CkptReader r(acq.ckpt->state);
            core.restoreState(r);
            r.expectEnd();
            from = core.cycle();
            skipped0 = core.idleCyclesSkipped();
            probes0 = core.fastForwardProbes();
        }

        const Cycle measure_from = core.cycle();
        const std::uint64_t ns_before = stageNs(prof);
        core.setPriorityPair(it.prioP, it.single ? 0 : it.prioS);
        FameResult res;
        {
            Tracer::Scope m(tr, "fame.measure");
            res = runner.measure(core, 0);
            tr.addInner(m.index(), static_cast<std::int64_t>(
                                       stageNs(prof) - ns_before));
        }
        ws.measureCycles += static_cast<double>(core.cycle() - measure_from);
        ws.cycles += static_cast<double>(core.cycle() - from);
        ws.skipped += static_cast<double>(core.idleCyclesSkipped() - skipped0);
        ws.probes += static_cast<double>(core.fastForwardProbes() - probes0);
        ws.prof.completionsNs += prof.completionsNs;
        ws.prof.issueNs += prof.issueNs;
        ws.prof.commitNs += prof.commitNs;
        ws.prof.decodeNs += prof.decodeNs;
        ws.prof.probeNs += prof.probeNs;

        SimResult sr;
        sr.kind = SimJobKind::FamePair;
        sr.fame = res;
        sr.rngSeed = job.rngSeed();
        SimResult back;
        bool loaded = false;
        {
            Tracer::Scope s(tr, "store.put");
            store.put(job, sr, StoreProvenance{});
        }
        {
            Tracer::Scope s(tr, "store.load");
            loaded = store.load(job, back);
        }
        const std::string fields = fameFields(res);
        chk.check("jobs", ResultStore::fingerprintHex(job), fields);
        chk.expect(loaded && fameFields(back.fame) == fields,
                   "store round trip of " + ResultStore::fingerprintHex(job));
    }
    fs::remove_all(store_dir);
}

/** Run @p items as one SimRunner batch (1 worker, in-memory checkpoints). */
double
runnerBatch(const std::vector<WalkItem> &items, Checker &chk,
            double &instrs)
{
    std::vector<SimJob> jobs;
    for (const WalkItem &it : items)
        jobs.push_back(jobFor(it, makeConfig(it.fast, 1, it.sets)));
    ResultCache cache;
    CkptManager mgr;
    SimRunner runner(1, &cache);
    runner.setCheckpoints(&mgr);
    const std::int64_t t0 = nowNs();
    const std::vector<SimResult> res = runner.run(jobs);
    const double ms = static_cast<double>(nowNs() - t0) / 1e6;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        chk.check("jobs", ResultStore::fingerprintHex(jobs[i]),
                  fameFields(res[i].fame));
        instrs += static_cast<double>(accountedInstrs(res[i].fame));
    }
    return ms;
}

// --- workloads -------------------------------------------------------

/**
 * A workload: setup() builds its inputs from the seed (timed as
 * setup_s), pass() is one untraced timed region, tracedPass() the same
 * work split into layer calls, and sample() the jobs of the layer walk.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup(std::uint64_t seed) = 0;
    virtual Pass pass(Checker &chk, LayerCounts &counts) = 0;
    virtual Pass tracedPass(Tracer &tr, Checker &chk) = 0;
    virtual std::vector<WalkItem> sample() const = 0;

    /** Whether the traced pass is its own layer walk (cpu_matrix). */
    virtual bool passIsWalk() const { return false; }

    /** Informational lines printed after an untraced run. */
    virtual std::string notes() const { return ""; }

    /**
     * Whether the untraced times are scaled to the reference host speed
     * by the probes around each timed segment (see runUntraced).
     */
    virtual bool hostScaled() const { return true; }

    std::string workDir;

    /**
     * Called by pass() after each timed segment, outside every timer and
     * never with work in flight: set-up may run again here, and the host
     * speed is probed. Returns the segment scaled to the reference host
     * speed. Unset in traced runs.
     */
    std::function<Pass(const Pass &)> between;

  protected:
    /** Add the timed segment @p seg to @p p, raw and scaled. */
    void
    account(Pass &p, const Pass &seg) const
    {
        p.wallS += seg.wallS;
        p.cpuS += seg.cpuS;
        if (!between)
            return;
        const Pass s = between(seg);
        p.scaledWallS += s.wallS;
        p.scaledCpuS += s.cpuS;
    }
};

template <typename F>
Pass
timed(F &&fn)
{
    const double c0 = cpuSeconds();
    const std::int64_t t0 = nowNs();
    fn();
    return {static_cast<double>(nowNs() - t0) / 1e9, cpuSeconds() - c0};
}

/** Mean |sim/paper - 1| (%) of the Table 3 ST IPCs in @p table3. */
double
stIpcErrPct(const std::string &table3)
{
    // Paper values as listed in EXPERIMENTS.md (Table 3, ST IPC).
    const std::map<std::string, double> paper = {
        {"ldint_l1", 2.29}, {"cpu_int", 1.14}, {"lng_chain_cpuint", 0.51},
        {"cpu_fp", 0.41},   {"ldint_l2", 0.27}, {"ldint_mem", 0.02}};
    double sum = 0.0;
    int n = 0;
    std::istringstream is(table3);
    std::string line;
    while (std::getline(is, line)) {
        char name[64] = {0};
        double ipc = 0.0;
        if (std::sscanf(line.c_str(), "| %63s | %lf |", name, &ipc) != 2)
            continue;
        const auto it = paper.find(name);
        if (it == paper.end())
            continue;
        sum += std::fabs(ipc / it->second - 1.0) * 100.0;
        ++n;
    }
    return n ? sum / n : 0.0;
}

/**
 * paper_fast: every paper subcommand with --fast --jobs=4, in one
 * process, through driverMain — what a user runs to reproduce the
 * paper. The subcommands run in paper order under every seed: they
 * share one result cache, so another order would change how much work
 * each does (fig4 is served from the cache only after table3, fig2 and
 * fig3). The seed therefore changes nothing here.
 */
class PaperFast : public Workload
{
  public:
    void
    setup(std::uint64_t) override
    {
        subs_ = {"table3", "fig2",   "fig3", "fig4",
                 "fig5",   "table4", "fig6", "ablation"};
        config_ = makeConfig(true, 4);
    }

    Pass
    pass(Checker &chk, LayerCounts &counts) override
    {
        ResultCache &cache = ResultCache::process();
        cache.clear();
        const double h0 = static_cast<double>(cache.hits());
        const double m0 = static_cast<double>(cache.misses());
        std::vector<DriverRun> runs(subs_.size());
        Pass p;
        for (std::size_t i = 0; i < subs_.size(); ++i) {
            account(p, timed([&] {
                runs[i] = runDriver({subs_[i], "--fast", "--jobs=4"});
            }));
        }
        for (std::size_t i = 0; i < subs_.size(); ++i) {
            chk.check("paper_fast", subs_[i], digest(runs[i].out),
                      runs[i].rc == 0);
            addCkptCounts(runs[i].err, counts);
            if (subs_[i] == "table3")
                table3Out_ = runs[i].out;
        }
        counts.cacheHits += static_cast<double>(cache.hits()) - h0;
        counts.cacheMisses += static_cast<double>(cache.misses()) - m0;
        counts.workers = 4;
        return p;
    }

    /**
     * Fig5 and ablation, nearly all of a pass, are segments of 4-14 s:
     * the probes around them say little of the host speed during them.
     * In a 16-pass run, scaling spread the pass times more than it
     * steadied them (0.26 against 0.19 between quartiles).
     */
    bool hostScaled() const override { return false; }

    Pass
    tracedPass(Tracer &tr, Checker &chk) override
    {
        ResultCache::process().clear();
        const double c0 = cpuSeconds();
        const std::int64_t t0 = nowNs();
        for (const std::string &sub : subs_) {
            DriverRun run;
            if (sub == "ablation") {
                // The ablation tables are assembled in the driver, not
                // by an exp producer, so the driver call is the span.
                Tracer::Scope s(tr, "exp.ablation");
                run = runDriver({sub, "--fast", "--jobs=4"});
            } else {
                CkptManager mgr;
                ExpConfig c = config_;
                c.checkpoints = &mgr;
                std::vector<Table> tables;
                {
                    Tracer::Scope s(tr, "exp." + sub);
                    tables = produce(sub, c);
                }
                Tracer::Scope s(tr, "exp.render");
                std::ostringstream os;
                for (const Table &t : tables) {
                    t.printAscii(os);
                    os << '\n';
                }
                run.out = os.str();
            }
            chk.check("paper_fast", sub, digest(run.out), run.rc == 0);
        }
        return {static_cast<double>(nowNs() - t0) / 1e9, cpuSeconds() - c0};
    }

    std::vector<WalkItem>
    sample() const override
    {
        // Table 3's jobs plus the Fig. 2 curve of one pair, which forks
        // from the pair's (4,4) warm-up.
        std::vector<WalkItem> items;
        const UbenchId ids[] = {UbenchId::CpuInt, UbenchId::LdintMem};
        for (UbenchId p : ids)
            items.push_back({true, {}, p, p, true, default_priority,
                             default_priority});
        for (UbenchId p : ids)
            for (UbenchId s : ids)
                items.push_back({true, {}, p, s, false, default_priority,
                                 default_priority});
        for (int d = 1; d <= 5; ++d) {
            const auto [pp, ps] = prioPairForDiff(d);
            items.push_back({true, {}, UbenchId::CpuInt, UbenchId::LdintMem,
                             false, pp, ps});
        }
        return items;
    }

    std::string
    notes() const override
    {
        char line[128];
        std::snprintf(line, sizeof line,
                      "st_ipc_err_pct %.2f %% (informational: Table 3 ST "
                      "IPC vs the paper)\n",
                      stIpcErrPct(table3Out_));
        return line;
    }

  private:
    static std::vector<Table>
    produce(const std::string &sub, const ExpConfig &c)
    {
        if (sub == "table3")
            return {renderTable3(runTable3(c))};
        if (sub == "fig2")
            return renderPrioCurves(runFig2(c), "Figure 2");
        if (sub == "fig3")
            return renderPrioCurves(runFig3(c), "Figure 3");
        if (sub == "fig4")
            return renderFig4(runFig4(c));
        if (sub == "fig5") {
            const CaseStudyData a =
                runFig5(SpecProxyId::H264ref, SpecProxyId::Mcf, c);
            const CaseStudyData b =
                runFig5(SpecProxyId::Applu, SpecProxyId::Equake, c);
            return {renderFig5(a), renderFig5(b)};
        }
        if (sub == "table4")
            return {renderTable4(runTable4(c))};
        if (sub == "fig6")
            return renderFig6(runFig6(c));
        throw std::runtime_error("unknown subcommand " + sub);
    }

    std::vector<std::string> subs_;
    ExpConfig config_;
    std::string table3Out_;
};

/**
 * cpu_matrix: compute-bound pairs over the Fig. 2/3 priority
 * differences -5..+5 at the default (full) FAME parameters, as one
 * SimRunner batch with 1 worker and an in-memory CkptManager, submitted
 * in chunks. The seed sets the job order.
 */
class CpuMatrix : public Workload
{
  public:
    void
    setup(std::uint64_t seed) override
    {
        std::mt19937_64 rng(seed);
        items_.clear();
        // Of the compute-bound benchmarks, cpu_fp and lng_chain_cpuint
        // leave the core idle 13-23% of cycles (fast-forward skips
        // them); these two mixes keep it busy on every cycle.
        const std::pair<UbenchId, UbenchId> mixes[] = {
            {UbenchId::CpuInt, UbenchId::CpuInt},
            {UbenchId::CpuInt, UbenchId::LdintL1},
        };
        for (const auto &[p, s] : mixes)
            for (int d = -5; d <= 5; ++d) {
                const auto [pp, ps] = prioPairForDiff(d);
                items_.push_back({false, {}, p, s, false, pp, ps});
            }
        std::shuffle(items_.begin(), items_.end(), rng);
        const ExpConfig c = makeConfig(false, 1);
        jobs_.clear();
        for (const WalkItem &it : items_)
            jobs_.push_back(jobFor(it, c));
    }

    Pass
    pass(Checker &chk, LayerCounts &counts) override
    {
        const std::vector<SimJob> jobs = jobs_; // between() sets up again
        ResultCache cache;
        CkptManager mgr;
        SimRunner runner(1, &cache);
        runner.setCheckpoints(&mgr);
        // The batch goes to the runner in chunks that share its cache and
        // the CkptManager, so the simulated work is that of one batch.
        // Each chunk is a timed segment, scaled by the host speed probed
        // right around it (see runUntraced).
        std::vector<SimResult> res;
        Pass p;
        for (std::size_t i = 0; i < jobs.size(); i += chunk_jobs) {
            const std::vector<SimJob> chunk(
                jobs.begin() + static_cast<std::ptrdiff_t>(i),
                jobs.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(i + chunk_jobs, jobs.size())));
            std::vector<SimResult> out;
            account(p, timed([&] { out = runner.run(chunk); }));
            res.insert(res.end(), out.begin(), out.end());
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            chk.check("jobs", ResultStore::fingerprintHex(jobs[i]),
                      fameFields(res[i].fame));
            p.instrs += static_cast<double>(accountedInstrs(res[i].fame));
        }
        counts.cacheHits += static_cast<double>(cache.hits());
        counts.cacheMisses += static_cast<double>(cache.misses());
        counts.warms += static_cast<double>(mgr.warms());
        counts.memForks += static_cast<double>(mgr.memForks());
        counts.storeForks += static_cast<double>(mgr.storeForks());
        counts.workers = 1;
        return p;
    }

    Pass
    tracedPass(Tracer &, Checker &) override
    {
        return {}; // the layer walk over every job is the traced pass
    }

    std::vector<WalkItem> sample() const override { return items_; }
    bool passIsWalk() const override { return true; }

  private:
    /** Jobs per chunk: six timed segments of about a second each. */
    static constexpr std::size_t chunk_jobs = 4;

    std::vector<WalkItem> items_;
    std::vector<SimJob> jobs_;
};

/**
 * mem_sweep_store: `p5sim sweep` on ldint_mem+ldint_mem over memory-
 * system axes plus the measurement-only fame.min_repetitions axis, into
 * a fresh --store; then a --resume pass over a widened product. The
 * seed sets the value order of every axis, hence the point order.
 */
class MemSweepStore : public Workload
{
  public:
    void
    setup(std::uint64_t seed) override
    {
        std::mt19937_64 rng(seed);
        auto axes = [&](bool wide) {
            std::vector<std::pair<std::string, std::vector<std::string>>> a =
                {{"core.lmq_entries", {"6", "8", "12", "16"}},
                 {"core.mem.dram_latency", {"150", "300", "600"}},
                 {"fame.min_repetitions", {"10", "20", "40"}}};
            if (wide)
                a[2].second.insert(a[2].second.end(), {"15", "30"});
            for (auto &axis : a)
                std::shuffle(axis.second.begin(), axis.second.end(), rng);
            return a;
        };
        passes_.clear();
        for (bool wide : {false, true}) {
            const std::string json =
                workDir + (wide ? "/pass2.json" : "/pass1.json");
            std::vector<std::string> args = {
                "sweep",       "--jobs=4",  "--primary",
                "ldint_mem",   "--secondary", "ldint_mem",
                "--store",     workDir + "/store", "--json", json};
            if (wide)
                args.push_back("--resume");
            std::size_t points = 1;
            for (const auto &[path, values] : axes(wide)) {
                std::string joined;
                for (const std::string &v : values)
                    joined += (joined.empty() ? "" : ",") + v;
                args.push_back("--sweep");
                args.push_back(path + "=" + joined);
                points *= values.size();
            }
            passes_.push_back({args, json, points});
        }
        fs::remove_all(workDir + "/store");
        fs::create_directories(workDir);
    }

    Pass
    pass(Checker &chk, LayerCounts &counts) override
    {
        fs::remove_all(workDir + "/store");
        ResultCache &cache = ResultCache::process();
        const double h0 = static_cast<double>(cache.hits());
        const double m0 = static_cast<double>(cache.misses());
        std::vector<DriverRun> runs(passes_.size());
        const Pass seg = timed([&] {
            for (std::size_t i = 0; i < passes_.size(); ++i) {
                // The resume pass models a later process: it starts
                // with an empty in-process cache and reads the store.
                cache.clear();
                runs[i] = runDriver(passes_[i].args);
            }
        });
        for (std::size_t i = 0; i < passes_.size(); ++i) {
            checkPass(i, runs[i].rc, chk, counts);
            addCkptCounts(runs[i].err, counts);
        }
        counts.cacheHits += static_cast<double>(cache.hits()) - h0;
        counts.cacheMisses += static_cast<double>(cache.misses()) - m0;
        measureDisk(counts);
        counts.workers = 4;
        fs::remove_all(workDir + "/store");
        Pass p;
        account(p, seg);
        return p;
    }

    Pass
    tracedPass(Tracer &tr, Checker &chk) override
    {
        fs::remove_all(workDir + "/store");
        LayerCounts ignored;
        const double c0 = cpuSeconds();
        const std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < passes_.size(); ++i) {
            ResultCache::process().clear();
            DriverRun run;
            {
                Tracer::Scope s(tr, "driver.sweep");
                run = runDriver(passes_[i].args);
            }
            checkPass(i, run.rc, chk, ignored);
        }
        const Pass p{static_cast<double>(nowNs() - t0) / 1e9,
                     cpuSeconds() - c0};
        fs::remove_all(workDir + "/store");
        return p;
    }

    std::vector<WalkItem>
    sample() const override
    {
        // Two warm keys (LMQ sizes); each forks a second point that
        // differs only in the measurement-only repetition count.
        std::vector<WalkItem> items;
        for (const char *lmq : {"6", "12"})
            for (const char *reps : {"10", "20"})
                items.push_back({false,
                                 {{"core.lmq_entries", lmq},
                                  {"core.mem.dram_latency", "300"},
                                  {"fame.min_repetitions", reps}},
                                 UbenchId::LdintMem,
                                 UbenchId::LdintMem,
                                 false,
                                 default_priority,
                                 default_priority});
        return items;
    }

  private:
    struct SweepPass
    {
        std::vector<std::string> args;
        std::string json; ///< the pass's --json report
        std::size_t points = 0;
    };

    /** Compare a pass's data.points with the reference, by fingerprint. */
    void
    checkPass(std::size_t i, int rc, Checker &chk, LayerCounts &counts)
    {
        const std::string section = "mem_sweep_store.pass" +
                                    std::to_string(i + 1);
        const std::string &json = passes_[i].json;
        JsonValue report;
        std::ifstream is(json);
        std::stringstream text;
        text << is.rdbuf();
        if (rc != 0 || !tryParseJson(text.str(), report)) {
            for (std::size_t k = 0; k < passes_[i].points; ++k)
                chk.expect(false, section + " produced no report");
            return;
        }
        const JsonValue *data = report.find("data");
        const JsonValue *points = data ? data->find("points") : nullptr;
        const std::size_t n = points ? points->elements().size() : 0;
        for (std::size_t k = 0; k < n; ++k) {
            const JsonValue &pt = points->elements()[k];
            const JsonValue *fp = pt.find("fingerprint");
            chk.check(section, fp ? fp->asString() : "?",
                      digest(pt.dump(0)));
        }
        for (std::size_t k = n; k < passes_[i].points; ++k)
            chk.expect(false, section + " is missing a point");
        if (const JsonValue *st = data ? data->find("store") : nullptr) {
            counts.storeWrites += st->find("recomputed")->asDouble();
            counts.storeHits += st->find("stored")->asDouble();
            counts.storeQuarantined += st->find("quarantined")->asDouble();
        }
        fs::remove(json);
    }

    void
    measureDisk(LayerCounts &counts) const
    {
        const fs::path store = workDir + "/store";
        if (!fs::exists(store))
            return;
        for (const auto &e : fs::recursive_directory_iterator(store)) {
            if (!e.is_regular_file())
                continue;
            const double bytes = static_cast<double>(e.file_size());
            counts.storeDiskBytes += bytes;
            const std::string name = e.path().filename().string();
            const bool result_file =
                name.size() > 5 && name.ends_with(".json") &&
                name.find("-v") != std::string::npos &&
                e.path().string().find("/ckpt/") == std::string::npos;
            if (result_file) {
                counts.storeFiles += 1;
                counts.storeFileBytes += bytes;
            }
        }
    }

    std::vector<SweepPass> passes_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "paper_fast")
        return std::make_unique<PaperFast>();
    if (name == "cpu_matrix")
        return std::make_unique<CpuMatrix>();
    if (name == "mem_sweep_store")
        return std::make_unique<MemSweepStore>();
    return nullptr;
}

const char *const workload_names[] = {"paper_fast", "cpu_matrix",
                                      "mem_sweep_store"};

// --- reporting -------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

void
printResult(const Checker &chk, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (chk.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << chk.attempted
       << ", \"failed\": " << chk.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/**
 * One short single-thread job through the library before anything is
 * timed, so lazy initialisation and cold caches are paid outside both
 * setup_s and the timed passes.
 */
void
warmUp(Checker &chk)
{
    const ExpConfig c = makeConfig(true, 1);
    const WalkItem it{true, {}, UbenchId::CpuInt, UbenchId::CpuInt, true,
                      default_priority, default_priority};
    const SimJob job = jobFor(it, c);
    chk.check("jobs", ResultStore::fingerprintHex(job),
              fameFields(job.execute().fame));
}

/**
 * Set-ups per run, taken in groups: set-up takes well under a
 * millisecond, so its median needs many samples.
 */
constexpr std::size_t setup_repeats = 100;
constexpr std::size_t setup_group = 5;

/**
 * Host speed probe: the time of four independent chains of 64-bit
 * multiplies, shifts and adds, code of the benchmark's own that no
 * change to the simulator can move. On a shared host every time the
 * benchmark takes drifts with what other tenants run, by up to 2x
 * within minutes, and the simulator slows more than any small probe:
 * more than a single dependent multiply chain (its ratio to a
 * cpu_matrix job varied by 14-33% between 30 s windows), a 1 MiB
 * pointer chase, a sort, a hash map or an interpreter loop. This probe
 * tracked the job best: the job's time varies about as the probe's to
 * the power probe_elasticity (a log-log fit over 10 s windows gave
 * 1.35 and 1.73 in two runs), and with that power the scaled job time
 * varied by 4-11% between 30 s windows while the raw time varied by
 * 18-34%.
 */
double
probeSeconds()
{
    const std::int64_t t0 = nowNs();
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (int i = 0; i < 15'000'000; ++i) {
        a = a * 6364136223846793005ULL + 1;
        b = b * 2862933555777941757ULL + 3;
        c = c ^ (c << 13) ^ (c >> 7);
        d = d + (a >> 3) + (b >> 5);
        asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d));
    }
    return static_cast<double>(nowNs() - t0) / 1e9;
}

/**
 * probeSeconds() at the reference host speed: the median on the 4-vCPU
 * Xeon host this benchmark was defined on. Reported times are scaled
 * to that speed.
 */
constexpr double probe_reference_s = 0.034;
constexpr double probe_elasticity = 1.5;
constexpr std::size_t probe_group = 3;

/** Factor that scales a time taken at probe time @p probe to the reference. */
double
hostScale(double probe)
{
    return std::pow(probe_reference_s / probe, probe_elasticity);
}

/** Median, quartiles and count of the scaled times, and the raw median. */
void
printTimes(const char *name, const std::vector<double> &scaled,
           double raw_median)
{
    const Quartiles q = quartiles(scaled);
    std::printf("%-8s median %.6g  q1 %.6g  q3 %.6g  n=%zu  (raw median "
                "%.6g)\n",
                name, q.median, q.q1, q.q3, scaled.size(), raw_median);
}

int
runUntraced(Workload &w, std::uint64_t seed, double seconds, Checker &chk,
            const std::string &reference)
{
    // One group of set-ups and host speed probes runs before the first
    // pass and one after each timed segment (a pass on mem_sweep_store,
    // a subcommand on paper_fast, a chunk of jobs on cpu_matrix). A segment is scaled by the probes right before and
    // after it, so a stretch of a slow host scales only what ran in it.
    // Only a group's first set-up finds the caches cold from the segment
    // before it, so the median is always a warm set-up.
    std::vector<double> setups, probes;
    auto setupGroup = [&] {
        for (std::size_t k = 0;
             k < setup_group && setups.size() < setup_repeats; ++k) {
            const std::int64_t t0 = nowNs();
            chk.load(reference);
            w.setup(seed);
            setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        }
    };
    auto probeGroup = [&] {
        std::vector<double> g;
        for (std::size_t k = 0; k < probe_group; ++k)
            g.push_back(probeSeconds());
        probes.insert(probes.end(), g.begin(), g.end());
        return g;
    };
    chk.load(reference);
    warmUp(chk);
    setupGroup();
    std::vector<double> before = probeGroup();
    w.between = [&](const Pass &seg) {
        setupGroup();
        const std::vector<double> after = probeGroup();
        std::vector<double> around = before;
        around.insert(around.end(), after.begin(), after.end());
        before = after;
        const double k =
            w.hostScaled() ? hostScale(quartiles(around).median) : 1.0;
        return Pass{seg.wallS * k, seg.cpuS * k};
    };

    // Peak memory is taken per pass where the kernel can reset it, so
    // it is a median like the times; otherwise it is the run's peak.
    std::vector<double> walls, cpus, raw_walls, raw_cpus, rss;
    double instrs = 0.0;
    const std::int64_t start = nowNs();
    for (;;) {
        LayerCounts counts;
        const bool per_pass = resetPeakRss();
        const Pass p = w.pass(chk, counts);
        walls.push_back(p.scaledWallS);
        cpus.push_back(p.scaledCpuS);
        raw_walls.push_back(p.wallS);
        raw_cpus.push_back(p.cpuS);
        instrs = p.instrs;
        std::printf("pass %zu: wall %.4g s, scaled %.4g s\n", walls.size(),
                    p.wallS, p.scaledWallS);
        if (per_pass)
            rss.push_back(peakRssMb());
        if (static_cast<double>(nowNs() - start) / 1e9 >= seconds)
            break;
    }

    w.between = nullptr;
    // Set-ups are scaled by the run's median probe.
    const double probe = quartiles(probes).median;
    const double k = w.hostScaled() ? hostScale(probe) : 1.0;
    std::vector<double> setups_scaled;
    for (double s : setups)
        setups_scaled.push_back(s * k);
    std::printf("host speed probe median %.6g s, n=%zu (reference %.6g s, "
                "elasticity %.2g): run-wide scale %.4f\n",
                probe, probes.size(), probe_reference_s, probe_elasticity,
                k);
    const double raw_wall = quartiles(raw_walls).median;
    printTimes("wall_s", walls, raw_wall);
    printTimes("cpu_s", cpus, quartiles(raw_cpus).median);
    printTimes("setup_s", setups_scaled, quartiles(setups).median);
    if (instrs > 0)
        std::printf("sim_mips %.4f M instr/s (informational, unscaled)\n",
                    instrs / raw_wall / 1e6);
    std::printf("%s", w.notes().c_str());

    printResult(chk, {{"wall_s", quartiles(walls).median, "s"},
                      {"cpu_s", quartiles(cpus).median, "s"},
                      {"peak_rss_mb",
                       rss.empty() ? peakRssMb() : quartiles(rss).median,
                       "MB"},
                      {"setup_s", quartiles(setups_scaled).median, "s"}});
    return 0;
}

int
runTraced(Workload &w, const std::string &name, std::uint64_t seed,
          Checker &chk)
{
    w.setup(seed);
    LayerCounts counts;
    const Pass base = w.pass(chk, counts);

    Tracer tr(name + "-seed" + std::to_string(seed));
    WalkStats ws;
    const std::string walk_dir = w.workDir + "/walk";
    Pass traced;
    if (!w.passIsWalk())
        traced = w.tracedPass(tr, chk);
    const Pass walk = timed([&] {
        Tracer::Scope s(tr, "walk");
        walkJobs(w.sample(), walk_dir, tr, chk, ws);
    });
    if (w.passIsWalk())
        traced = walk;

    // The cost of tracing: the same walk again with tracing off.
    Tracer off("", false);
    WalkStats ignored;
    const Pass plain = timed(
        [&] { walkJobs(w.sample(), walk_dir, off, chk, ignored); });

    // The runner batch: the untraced pass where that is one (cpu_matrix),
    // else the walk's jobs as one batch.
    double batch_ms = base.wallS * 1e3, instrs = base.instrs;
    if (!w.passIsWalk())
        batch_ms = runnerBatch(w.sample(), chk, instrs);

    const std::string trace_path =
        w.workDir + "/trace-" + name + "-seed" + std::to_string(seed) +
        ".json";
    tr.write(trace_path);
    std::printf("trace written to %s\n", trace_path.c_str());

    const SmtCore::StageProfile &p = ws.prof;
    const double core_ns = static_cast<double>(stageNs(p));
    const double forks = counts.memForks + counts.storeForks;
    const double traced_ns = traced.wallS * 1e9;
    auto pct = [&](const std::string &span) {
        return ratio(tr.selfNs(span), traced_ns) * 100.0;
    };
    auto perOp = [&](const std::string &span, double scale) {
        const auto [ns, n] = tr.total(span);
        return n ? ns / static_cast<double>(n) / scale : 0.0;
    };

    std::vector<Metric> m = {
        {"core.decode_ms", static_cast<double>(p.decodeNs) / 1e6, "ms"},
        {"core.issue_ms", static_cast<double>(p.issueNs) / 1e6, "ms"},
        {"core.completions_ms", static_cast<double>(p.completionsNs) / 1e6,
         "ms"},
        {"core.commit_ms", static_cast<double>(p.commitNs) / 1e6, "ms"},
        {"core.ff_probe_ms", static_cast<double>(p.probeNs) / 1e6, "ms"},
        {"core.mcycles_per_s", ratio(ws.cycles, core_ns) * 1e3, "Mcycle/s"},
        {"core.ff_probes", ws.probes, "count"},
        {"core.idle_cycles_skipped", ws.skipped, "count"},
        {"core.skip_ratio", ratio(ws.skipped, ws.cycles), "ratio"},
        {"core.decode_issue_share",
         ratio(static_cast<double>(p.decodeNs + p.issueNs), core_ns),
         "ratio"},
        {"fame.warm_ms", tr.selfNs("fame.warm") / 1e6, "ms"},
        {"fame.measure_ms", tr.selfNs("fame.measure") / 1e6, "ms"},
        {"fame.warm_cycles", ws.warmCycles, "count"},
        {"fame.measure_cycles", ws.measureCycles, "count"},
        {"ckpt.warms", counts.warms, "count"},
        {"ckpt.mem_forks", counts.memForks, "count"},
        {"ckpt.store_forks", counts.storeForks, "count"},
        {"ckpt.fork_ratio", ratio(forks, forks + counts.warms), "ratio"},
        {"ckpt.save_ms", tr.selfNs("ckpt.save") / 1e6, "ms"},
        {"ckpt.restore_ms", tr.selfNs("ckpt.restore") / 1e6, "ms"},
        {"ckpt.claim_ms", tr.selfNs("ckpt.acquire") / 1e6, "ms"},
        {"ckpt.image_mb", ratio(ws.imageBytes, ws.images) / 1048576.0, "MB"},
        {"runner.cache_hits", counts.cacheHits, "count"},
        {"runner.cache_misses", counts.cacheMisses, "count"},
        {"runner.hit_ratio",
         ratio(counts.cacheHits, counts.cacheHits + counts.cacheMisses),
         "ratio"},
        {"runner.batch_ms", batch_ms, "ms"},
        {"runner.sim_mips", ratio(instrs, batch_ms) / 1e3, "Minstr/s"},
        {"runner.parallel_eff",
         ratio(base.cpuS, base.wallS * counts.workers), "ratio"},
    };
    for (const char *sub : {"table3", "fig2", "fig3", "fig4", "fig5",
                            "table4", "fig6", "ablation", "render"})
        m.push_back({std::string("exp.") + sub + "_pct",
                     pct(std::string("exp.") + sub), "%"});
    m.insert(m.end(), {
        {"store.put_ms", perOp("store.put", 1e6), "ms"},
        {"store.load_ms", perOp("store.load", 1e6), "ms"},
        {"store.writes", counts.storeWrites, "count"},
        {"store.hits", counts.storeHits, "count"},
        {"store.quarantined", counts.storeQuarantined, "count"},
        {"store.file_kb", ratio(counts.storeFileBytes, counts.storeFiles) /
                              1024.0, "KB"},
        {"store.disk_mb", counts.storeDiskBytes / 1048576.0, "MB"},
        {"config.point_us", perOp("config", 1e3), "us"},
        {"program.build_ms", perOp("program.build", 1e6), "ms"},
        {"trace.overhead_pct", (walk.wallS / plain.wallS - 1.0) * 100.0,
         "%"},
    });

    // The values behind each workload's purpose (README "Layer
    // separation"): a workload that drifts from it shows here.
    std::string largest = "-";
    double largest_pct = 0.0;
    for (const Metric &x : m)
        if (x.name.starts_with("exp.") && x.name != "exp.render_pct" &&
            x.value > largest_pct) {
            largest = x.name;
            largest_pct = x.value;
        }
    std::printf("separation: skip_ratio %.4f, decode+issue %.1f%% of core, "
                "largest producer %s (%.1f%%), store writes %.0f hits "
                "%.0f, disk %.1f MB\n",
                ratio(ws.skipped, ws.cycles),
                ratio(static_cast<double>(p.decodeNs + p.issueNs), core_ns) *
                    100.0,
                largest.c_str(), largest_pct, counts.storeWrites,
                counts.storeHits, counts.storeDiskBytes / 1048576.0);
    printResult(chk, m);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: p5bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--reference FILE] [--work-dir DIR]\n"
                 "       p5bench --record FILE [--work-dir DIR]\n"
                 "workloads: paper_fast cpu_matrix mem_sweep_store\n");
    return 2;
}

/**
 * Record the reference from this build: every workload's outputs (one
 * untraced pass each, seed 0) and the results of each layer-walk job.
 */
int
record(const std::string &path, const std::string &work_dir)
{
    Checker chk;
    chk.setRecord(true);
    warmUp(chk);
    for (const char *name : workload_names) {
        std::unique_ptr<Workload> w = makeWorkload(name);
        w->workDir = work_dir + "/" + name;
        w->setup(0);
        LayerCounts counts;
        w->pass(chk, counts);
        double instrs = 0.0;
        runnerBatch(w->sample(), chk, instrs);
        fs::remove_all(w->workDir);
    }
    chk.save(path);
    std::printf("recorded %llu outputs (%llu failed) to %s\n",
                static_cast<unsigned long long>(chk.attempted),
                static_cast<unsigned long long>(chk.failed), path.c_str());
    return chk.failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // glibc raises its mmap threshold at the first free of a large
    // mapped block and from then on serves such blocks, checkpoint
    // images among them, from the heap. Where in a run that happened
    // decided peak_rss_mb (17.3 or 20.3 MB on cpu_matrix). Keeping the
    // default 128 KiB threshold fixed makes every pass alike; a fixed
    // 32 MiB one, the heap state, left peak memory on mem_sweep_store
    // varying by 15%.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (!key.starts_with("--"))
            return usage();
        args[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0)
        return usage();
    const std::string work_root =
        args.count("work-dir") ? args["work-dir"] : ".bench_build/work";

    try {
        if (args.count("record"))
            return record(args["record"], work_root);

        for (const char *k : {"workload", "seed", "seconds", "trace"})
            if (!args.count(k))
                return usage();
        const std::string name = args["workload"];
        std::unique_ptr<Workload> w = makeWorkload(name);
        if (!w)
            return usage();
        const std::uint64_t seed = std::stoull(args["seed"]);
        const double seconds = std::stod(args["seconds"]);
        const bool trace = args["trace"] == "1";

        const std::string reference = args.count("reference")
                                          ? args["reference"]
                                          : "p5bench/reference.json";
        Checker chk;
        w->workDir = work_root + "/" + name + "-" +
                     std::to_string(::getpid());
        fs::create_directories(w->workDir);
        int rc = 0;
        if (trace) {
            chk.load(reference);
            rc = runTraced(*w, name, seed, chk);
        } else {
            rc = runUntraced(*w, seed, seconds, chk, reference);
        }
        // Keep the trace file; drop everything else the run wrote.
        for (const auto &e : fs::directory_iterator(w->workDir))
            if (!e.path().filename().string().starts_with("trace-"))
                fs::remove_all(e.path());
        if (fs::is_empty(w->workDir))
            fs::remove(w->workDir);
        return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "p5bench: %s\n", e.what());
        return 1;
    }
}
