#include "driver/perf.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "ckpt/ckpt_manager.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "core/chip.hh"
#include "core/smt_core.hh"
#include "driver/commands.hh"
#include "fame/fame.hh"
#include "program/trace.hh"
#include "sched/alloc_engine.hh"
#include "sched/workload.hh"
#include "ubench/ubench.hh"

namespace p5 {

double
steadyWallMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

AbResult
abCase(const std::string &name, const Arm &arm_a, const Arm &arm_b,
       int reps, std::ostream &err, const std::function<double()> &clock)
{
    const auto timedRun = [&clock](const Arm &arm) {
        double wall_ms = 0;
        ArmRun run = arm([&](const std::function<void()> &work) {
            const double t0 = clock();
            work();
            wall_ms += clock() - t0;
        });
        run.wallMs = wall_ms;
        return run;
    };

    timedRun(arm_b);
    AbResult res;
    std::vector<std::uint64_t> reference;
    std::vector<double> ratios;
    for (int rep = 0; rep < reps; ++rep) {
        ArmRun a, b;
        if (rep % 2 == 0) {
            a = timedRun(arm_a);
            b = timedRun(arm_b);
        } else {
            b = timedRun(arm_b);
            a = timedRun(arm_a);
        }
        if (rep == 0)
            reference = a.signature;
        res.identicalStats = res.identicalStats &&
                             a.signature == reference &&
                             b.signature == reference;
        ratios.push_back(a.wallMs / b.wallMs);
        if (rep == 0 || a.wallMs < res.a.wallMs)
            res.a = std::move(a);
        if (rep == 0 || b.wallMs < res.b.wallMs)
            res.b = std::move(b);
    }
    // Drift (another tenant, a frequency step) inflates both arms of a
    // back-to-back pair alike, so their ratio cancels it where the
    // ratio of two per-arm minima, taken from different repetitions,
    // does not.
    std::sort(ratios.begin(), ratios.end());
    const std::size_t mid = ratios.size() / 2;
    res.speedup = ratios.size() % 2 ? ratios[mid]
                                    : (ratios[mid - 1] + ratios[mid]) / 2;
    // A median of n samples has a standard error of about 1.2533 sigma
    // / sqrt(n), and a normal sigma is about the IQR / 1.349. The
    // quartiles are the sorted ratios at n/4 and 3n/4 (the 9th and
    // 25th of 32).
    const double iqr =
        ratios[ratios.size() * 3 / 4] - ratios[ratios.size() / 4];
    res.stdErr =
        1.2533 / 1.349 * iqr / std::sqrt(static_cast<double>(reps));

    err << name << ": " << res.a.wallMs << " ms -> " << res.b.wallMs
        << " ms (" << res.speedup << "x)"
        << (res.identicalStats ? "" : "  STATS DEVIATE") << '\n';
    return res;
}

void
writeBuildInfo(JsonWriter &w)
{
    // The P5SIM_BUILD_* macros are defined for this file by
    // src/CMakeLists.txt.
    w.beginObject();
    w.member("compiler", P5SIM_BUILD_COMPILER_ID);
    w.member("compilerVersion", P5SIM_BUILD_COMPILER_VERSION);
    w.member("buildType", P5SIM_BUILD_TYPE);
    w.member("ipo", P5SIM_BUILD_IPO != 0);
    w.endObject();
}

namespace {

/** One FAME pair case in the speedup report. */
struct PerfCase
{
    const char *name;
    UbenchId primary;
    UbenchId secondary;
    int prioP;
    int prioS;
    /** FAME's default parameters instead of endToEndFame(): a
     *  measurement long enough for the period skip to confirm a
     *  period of a pair whose slow thread retires few executions. */
    bool defaultFame = false;
};

/**
 * The report suite. ldint_mem+ldint_mem (4,4) is the headline case
 * (the acceptance floor is a 3x end-to-end speedup there); the
 * compute-bound and mixed pairs — balanced and priority-skewed — pin
 * the "no overhead when there is nothing to skip" end of the spectrum.
 * cpu_int+ldint_l1@2,6, at FAME's default parameters, is a busy pair
 * whose state recurs right after the warm-up: the period skip jumps
 * about half of its measurement.
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
    {"cpu_int+ldint_l1@2,6", UbenchId::CpuInt, UbenchId::LdintL1, 2, 6,
     true},
};

/**
 * Repetitions per arm of every case but the checkpoint matrix. On a
 * shared 4-vCPU host, 16 left the A/A standard error of some parity
 * cases at 0.04-0.07; at 32 it read 0.002-0.032 (median 0.012) over 11
 * reports.
 */
constexpr int report_reps = 32;

FameParams
endToEndFame()
{
    FameParams fame;
    fame.minRepetitions = 5;
    return fame;
}

/** What a FAME run measured, as an arm reports it. */
ArmRun
fameRun(const FameResult &r)
{
    ArmRun run;
    run.simCycles = r.totalCycles;
    run.ipc = r.totalIpc();
    run.signature = {r.totalCycles, r.converged, r.hitCycleLimit};
    for (const ThreadMeasurement &t : r.thread) {
        run.instrs += t.accountedInstrs;
        run.signature.insert(run.signature.end(),
                             {t.present, t.executions, t.accountedCycles,
                              t.accountedInstrs});
    }
    return run;
}

/** A runFame() inspector adding the core's ticked cycles (neither
 *  idle-skipped nor period-jumped) and fast-forward probes to @p run. */
auto
countInto(ArmRun &run)
{
    return [&run](const SmtCore &core) {
        run.tickedCycles += core.cycle() - core.idleCyclesSkipped() -
                            core.periodCyclesSkipped();
        run.ffProbes += core.fastForwardProbes();
    };
}

/** One FAME run of a pair, fast-forward on or off. */
Arm
fameArm(bool fast_forward, const InstrSource *prog_p,
        const InstrSource *prog_s, int prio_p, int prio_s,
        const FameParams &fame = endToEndFame())
{
    return [=](const TimeWork &timed) {
        CoreParams core;
        core.fastForward = fast_forward;
        ArmRun counts;
        FameResult r;
        timed([&] {
            r = runFame(core, prog_p, prog_s, prio_p, prio_s, fame,
                        nullptr, "", countInto(counts));
        });
        ArmRun run = fameRun(r);
        run.tickedCycles = counts.tickedCycles;
        run.ffProbes = counts.ffProbes;
        return run;
    };
}

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

/** Fast-forward on or off; @p migrations receives the run's count. */
Arm
chipArm(const Workload &workload, bool fast_forward,
        std::uint64_t &migrations)
{
    return [&workload, fast_forward, &migrations](const TimeWork &timed) {
        ChipParams params;
        params.numCores = chip_case_cores;
        params.core.fastForward = fast_forward;
        Chip chip(params);
        AllocEngine engine(chip, workload, SchedParams{}, 1);
        AllocRunResult r;
        timed([&] { r = engine.run(chip_case_cycles); });

        ArmRun run;
        run.simCycles = r.cycles;
        run.instrs = r.committed;
        run.ipc = r.aggregateIpc;
        run.signature = {r.cycles, r.quanta, r.migrations, r.committed,
                         r.checkViolations};
        for (int c = 0; c < chip.numCores(); ++c)
            countInto(run)(chip.core(c));
        for (const auto &t : r.threads)
            run.signature.insert(run.signature.end(),
                                 {t.committed, t.l2Misses,
                                  t.cyclesScheduled});
        migrations = r.migrations;
        return run;
    };
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
/** Two repetitions read noise: the per-repetition ratios of one
 *  report spread from 2.9x to 4.8x, and medians of six 3.8x-4.5x. */
constexpr int ckpt_case_reps = 6;

/**
 * Sweep the priority matrix once. The checkpointed arm gets a fresh
 * CkptManager per run, so every run pays exactly one warm-up (1 warm +
 * 35 in-memory forks), never a warm image cached by an earlier run;
 * its counts land in @p warms and @p forks. The cold arm warms every
 * pair from scratch (the production cold path, fast-forward on).
 */
Arm
matrixArm(const InstrSource &prog, bool checkpointed, std::uint64_t &warms,
          std::uint64_t &forks)
{
    return [&prog, checkpointed, &warms, &forks](const TimeWork &timed) {
        CoreParams core;
        core.fastForward = true;
        FameParams fame;
        fame.warmupRepetitions = 160;
        fame.minRepetitions = 3;
        fame.maiv = 0.10;
        CkptManager mgr;
        CkptManager *ckpts = checkpointed ? &mgr : nullptr;

        ArmRun run;
        std::vector<FameResult> results;
        results.reserve(ckpt_case_pairs);
        timed([&] {
            for (int p = 1; p <= ckpt_case_prios; ++p)
                for (int s = 1; s <= ckpt_case_prios; ++s)
                    results.push_back(
                        runFame(core, &prog, &prog, p, s, fame, ckpts,
                                checkpointed ? ckpt_case_key : "",
                                countInto(run)));
        });

        for (const FameResult &r : results) {
            const ArmRun one = fameRun(r);
            run.simCycles += one.simCycles;
            run.instrs += one.instrs;
            run.signature.insert(run.signature.end(),
                                 one.signature.begin(), one.signature.end());
        }
        // The cold arm signs the 1 warm + 35 forks the forked arm must
        // count, so the fork accounting is part of the identity check.
        if (checkpointed) {
            warms = mgr.warms();
            forks = mgr.memForks();
        }
        run.signature.insert(run.signature.end(),
                             {checkpointed ? warms : 1,
                              checkpointed ? forks : ckpt_case_pairs - 1});
        return run;
    };
}

// --- report ------------------------------------------------------------

/**
 * Absolute throughput of a case's fast arm: simulated cycles and
 * committed instructions per wall-clock second, in millions. Recorded
 * to track the trend, never gated (wall clock drifts across hosts).
 */
void
writeThroughput(JsonWriter &w, const ArmRun &fast)
{
    w.member("mcyclesPerSecFast",
             static_cast<double>(fast.simCycles) / (fast.wallMs * 1e3));
    w.member("minstrPerSecFast",
             static_cast<double>(fast.instrs) / (fast.wallMs * 1e3));
}

/** The work counts of a case's fast arm (see ArmRun). */
void
writeWorkCounts(JsonWriter &w, const ArmRun &fast)
{
    w.member("tickedCycles", fast.tickedCycles);
    w.member("ffProbes", fast.ffProbes);
}

/**
 * Time one fast/slow case and write its report object; B is the fast
 * arm. A parity case, whose two arms tick the same cycles (the fast
 * arm skips none, or both arms skip alike), so that its true ratio is
 * 1, also runs the fast arm against itself (its A/A arm) and records
 * the standard error of that arm's median ratio, which sizes the
 * case's parity margin. False when any arm's stats deviate.
 */
bool
fastSlowCase(JsonWriter &w, const std::string &name, const Arm &slow,
             const Arm &fast, std::ostream &err,
             const std::uint64_t *migrations = nullptr)
{
    const AbResult r = abCase(name, slow, fast, report_reps, err);
    bool identical = r.identicalStats;
    w.beginObject();
    w.member("name", name);
    w.member("simCyclesFast", r.b.simCycles);
    w.member("simCyclesSlow", r.a.simCycles);
    w.member("ipcTotal", r.b.ipc);
    w.member("wallMsFast", r.b.wallMs);
    w.member("wallMsSlow", r.a.wallMs);
    w.member("speedup", r.speedup);
    w.member("identicalStats", r.identicalStats);
    writeWorkCounts(w, r.b);
    if (r.b.tickedCycles == r.a.tickedCycles) {
        const AbResult aa =
            abCase(name + " A/A", fast, fast, report_reps, err);
        identical = identical && aa.identicalStats;
        w.member("aaStdErr", aa.stdErr);
    }
    if (migrations)
        w.member("migrations", *migrations);
    writeThroughput(w, r.b);
    w.endObject();
    return identical;
}

/**
 * Write the report tools/compare_perf.py reads to @p path. Nonzero
 * when the file cannot be written or any case's arms disagree.
 */
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
    w.key("build");
    writeBuildInfo(w);
    w.key("cases");
    w.beginArray();
    for (const PerfCase &c : report_cases) {
        const SyntheticProgram pp = makeUbench(c.primary);
        const SyntheticProgram ps = makeUbench(c.secondary);
        const FameParams fame = c.defaultFame ? FameParams{} : endToEndFame();
        all_identical &= fastSlowCase(
            w, c.name, fameArm(false, &pp, &ps, c.prioP, c.prioS, fame),
            fameArm(true, &pp, &ps, c.prioP, c.prioS, fame), err);
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

        all_identical &=
            fastSlowCase(w, trace_case_name, fameArm(true, &sp, &sp, 4, 4),
                         fameArm(true, tp.get(), tp.get(), 4, 4), err);
    }

    {
        const Workload workload = Workload::fromMix(
            "ldint_mem,ldint_mem,ldint_mem,ldint_mem,"
            "ldint_mem,ldint_mem,ldint_mem,ldint_mem");
        std::uint64_t migrations = 0;
        all_identical &= fastSlowCase(
            w, chip_case_name, chipArm(workload, false, migrations),
            chipArm(workload, true, migrations), err, &migrations);
    }

    {
        const SyntheticProgram prog = makeUbench(UbenchId::LdintMem);
        std::uint64_t warms = 0, forks = 0;
        const AbResult r =
            abCase(ckpt_case_name, matrixArm(prog, false, warms, forks),
                   matrixArm(prog, true, warms, forks), ckpt_case_reps,
                   err);
        all_identical = all_identical && r.identicalStats;
        w.beginObject();
        w.member("name", ckpt_case_name);
        w.member("checkpointed", true);
        w.member("pairs", ckpt_case_pairs);
        w.member("warms", warms);
        w.member("memForks", forks);
        w.member("simCyclesMatrix", r.b.simCycles);
        w.member("wallMsCold", r.a.wallMs);
        w.member("wallMsCkpt", r.b.wallMs);
        w.member("speedup", r.speedup);
        w.member("identicalStats", r.identicalStats);
        writeWorkCounts(w, r.b);
        // Effective throughput: a forked pair's result cycles include
        // the warm-up it restored instead of simulating.
        writeThroughput(w, r.b);
        w.endObject();
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

/** Per-stage wall-time breakdown of the report's pair cases. */
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

} // namespace

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

} // namespace p5
