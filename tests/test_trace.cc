/**
 * @file
 * Equivalence and validation suite for the replayable trace frontend.
 *
 * The trace contract is that a dumped trace replayed through a
 * TraceProgram is indistinguishable from the synthetic generator that
 * recorded it: every fetched instruction byte-identical, every stat of
 * every priority pair bit-identical — with fast-forward on or off,
 * through checkpoint save/restore, checkpoint-forked FAME runs and
 * store-resumed batches. The validation half covers the loader's
 * corruption handling: header, checksum, version and record-bound
 * failures are rejected (and quarantined) rather than replayed.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/ckpt_io.hh"
#include "ckpt/ckpt_manager.hh"
#include "core/smt_core.hh"
#include "fame/fame.hh"
#include "fame/sim_runner.hh"
#include "program/trace.hh"
#include "store/result_store.hh"
#include "test_helpers.hh"
#include "ubench/ubench.hh"

namespace p5 {
namespace {

/** Fresh per-test trace path under the gtest temp root. */
std::string
tracePath(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "p5sim_" + name + ".trace";
    std::remove(path.c_str());
    std::remove((path + ".bad").c_str());
    return path;
}

/**
 * Recorded executions that guarantee a @p cycles run never wraps the
 * trace: decode fetches at most decode_width instructions per cycle,
 * plus slack for the in-flight window after the last decode.
 */
std::uint64_t
dumpDepth(const SyntheticProgram &prog, Cycle cycles)
{
    const std::uint64_t fetch_bound =
        static_cast<std::uint64_t>(cycles) * 5 + 2000;
    return fetch_bound / prog.instrsPerExecution() + 2;
}

struct RunSnapshot
{
    Cycle cycle = 0;
    std::map<std::string, double> stats;
    std::array<std::uint64_t, num_hw_threads> committed{};
    std::array<std::uint64_t, num_hw_threads> executions{};
};

/** Run @p prog against itself and snapshot every observable. */
RunSnapshot
runPair(const InstrSource &prog, int prio_p, int prio_s,
        bool fast_forward, bool armed, Cycle cycles)
{
    CoreParams params;
    params.fastForward = fast_forward;
    SmtCore core(params);
    if (armed)
        test::withCheckers(core);
    core.attachThread(0, &prog, prio_p);
    core.attachThread(1, &prog, prio_s);
    core.run(cycles);

    RunSnapshot snap;
    snap.cycle = core.cycle();
    for (const std::string &name : core.stats().names())
        snap.stats.emplace(name, core.stats().value(name));
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        snap.committed[static_cast<size_t>(t)] = core.committedOf(t);
        snap.executions[static_cast<size_t>(t)] = core.executionsOf(t);
    }
    return snap;
}

void
expectIdentical(const RunSnapshot &replay, const RunSnapshot &synth,
                const std::string &label)
{
    EXPECT_EQ(replay.cycle, synth.cycle) << label;
    ASSERT_EQ(replay.stats.size(), synth.stats.size()) << label;
    for (const auto &[name, value] : synth.stats) {
        auto it = replay.stats.find(name);
        ASSERT_NE(it, replay.stats.end())
            << label << " missing " << name;
        EXPECT_EQ(it->second, value) << label << " stat " << name;
    }
    for (size_t t = 0; t < num_hw_threads; ++t) {
        EXPECT_EQ(replay.committed[t], synth.committed[t])
            << label << " committed thread " << t;
        EXPECT_EQ(replay.executions[t], synth.executions[t])
            << label << " executions thread " << t;
    }
}

void
expectSameFame(const FameResult &a, const FameResult &b,
               const std::string &label)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles) << label;
    EXPECT_EQ(a.converged, b.converged) << label;
    EXPECT_EQ(a.hitCycleLimit, b.hitCycleLimit) << label;
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(num_hw_threads); ++t) {
        SCOPED_TRACE(label + " thread " + std::to_string(t));
        EXPECT_EQ(a.thread[t].present, b.thread[t].present);
        EXPECT_EQ(a.thread[t].executions, b.thread[t].executions);
        EXPECT_EQ(a.thread[t].accountedCycles,
                  b.thread[t].accountedCycles);
        EXPECT_EQ(a.thread[t].accountedInstrs,
                  b.thread[t].accountedInstrs);
    }
}

// --- instruction-level byte identity ------------------------------------

/**
 * The ground truth under every other test here: within the recorded
 * span, each instruction a trace stream materializes equals the
 * generator's in every field the core can observe.
 */
TEST(TraceStream, FetchesByteIdenticalInstructions)
{
    for (UbenchId id : presentedUbench()) {
        const SyntheticProgram prog = makeUbench(id, 0.25);
        const std::string path =
            tracePath(std::string("bytes_") + ubenchName(id));
        const std::uint64_t execs = 3;
        dumpTrace(prog, execs, path);
        const std::unique_ptr<TraceProgram> replay = loadTrace(path);

        InstrStream synth(&prog, 0);
        InstrStream traced(replay.get(), 0);
        const std::uint64_t span =
            execs * prog.instrsPerExecution();
        for (std::uint64_t i = 0; i < span; ++i) {
            const DynInstr a = synth.fetch();
            const DynInstr b = traced.fetch();
            const std::string at = std::string(ubenchName(id)) +
                                   " instr " + std::to_string(i);
            ASSERT_EQ(a.op, b.op) << at;
            ASSERT_EQ(a.dst, b.dst) << at;
            ASSERT_EQ(a.src0, b.src0) << at;
            ASSERT_EQ(a.src1, b.src1) << at;
            ASSERT_EQ(a.addr, b.addr) << at;
            ASSERT_EQ(a.branchTaken, b.branchTaken) << at;
            ASSERT_EQ(a.prioNopReg, b.prioNopReg) << at;
            ASSERT_EQ(a.pc, b.pc) << at;
            ASSERT_EQ(a.seq, b.seq) << at;
        }
        std::remove(path.c_str());
    }
}

/** Rewind and seek reproduce previously fetched trace instructions. */
TEST(TraceStream, RewindAndSeekReproduce)
{
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem, 0.25);
    const std::string path = tracePath("rewind");
    dumpTrace(prog, 2, path);
    const std::unique_ptr<TraceProgram> replay = loadTrace(path);

    InstrStream s(replay.get(), 0);
    std::vector<DynInstr> first;
    for (int i = 0; i < 200; ++i)
        first.push_back(s.fetch());

    s.rewindTo(37);
    for (int i = 37; i < 200; ++i) {
        const DynInstr d = s.fetch();
        EXPECT_EQ(d.seq, first[static_cast<size_t>(i)].seq);
        EXPECT_EQ(d.addr, first[static_cast<size_t>(i)].addr);
        EXPECT_EQ(d.op, first[static_cast<size_t>(i)].op);
    }

    s.seekTo(5);
    EXPECT_EQ(s.peek().addr, first[5].addr);
    s.seekTo(199);
    EXPECT_EQ(s.peek().addr, first[199].addr);
    std::remove(path.c_str());
}

// --- core-level equivalence ---------------------------------------------

/**
 * The headline sweep: all six presented benchmarks, all 36 priority
 * pairs, replayed stats bit-identical to the generator's.
 */
TEST(TraceEquivalence, BitIdenticalStatsAcrossAllPriorityPairs)
{
    constexpr Cycle run_cycles = 2500;
    for (UbenchId id : presentedUbench()) {
        const SyntheticProgram prog = makeUbench(id, 0.25);
        const std::string path =
            tracePath(std::string("sweep_") + ubenchName(id));
        dumpTrace(prog, dumpDepth(prog, run_cycles), path);
        const std::unique_ptr<TraceProgram> replay = loadTrace(path);
        for (int prio_p = 1; prio_p <= 6; ++prio_p) {
            for (int prio_s = 1; prio_s <= 6; ++prio_s) {
                const std::string label =
                    std::string(ubenchName(id)) + " trace (" +
                    std::to_string(prio_p) + "," +
                    std::to_string(prio_s) + ")";
                RunSnapshot synth = runPair(prog, prio_p, prio_s,
                                            true, false, run_cycles);
                RunSnapshot traced = runPair(*replay, prio_p, prio_s,
                                             true, false, run_cycles);
                expectIdentical(traced, synth, label);
            }
        }
        std::remove(path.c_str());
    }
}

/**
 * Replay composes with the fast-forward engine: trace-driven runs are
 * bit-identical between engine modes, with the fatal skip-aware p5check
 * suite armed on both.
 */
TEST(TraceEquivalence, FastForwardModesAgreeUnderCheckers)
{
    constexpr Cycle run_cycles = 2500;
    for (UbenchId id : presentedUbench()) {
        const SyntheticProgram prog = makeUbench(id, 0.25);
        const std::string path =
            tracePath(std::string("ff_") + ubenchName(id));
        dumpTrace(prog, dumpDepth(prog, run_cycles), path);
        const std::unique_ptr<TraceProgram> replay = loadTrace(path);
        const std::string label =
            std::string(ubenchName(id)) + " trace armed (4,4)";
        RunSnapshot slow =
            runPair(*replay, 4, 4, false, true, run_cycles);
        RunSnapshot fast =
            runPair(*replay, 4, 4, true, true, run_cycles);
        expectIdentical(fast, slow, label);
        std::remove(path.c_str());
    }
}

/**
 * The trace cursor survives checkpoint save/restore: a run resumed on
 * a fresh core (whose stream re-derives its position through
 * locate()) matches the uninterrupted run observable for observable.
 */
TEST(TraceEquivalence, CkptRoundTripResumesMidTrace)
{
    constexpr Cycle first_leg = 1500;
    constexpr Cycle second_leg = 1000;
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem, 0.25);
    const std::string path = tracePath("ckpt_cursor");
    dumpTrace(prog, dumpDepth(prog, first_leg + second_leg), path);
    const std::unique_ptr<TraceProgram> replay = loadTrace(path);

    // Uninterrupted reference.
    CoreParams params;
    SmtCore whole(params);
    whole.attachThread(0, replay.get(), 6);
    whole.attachThread(1, replay.get(), 2);
    whole.run(first_leg + second_leg);

    // Checkpointed at first_leg, restored onto a fresh core.
    SmtCore left(params);
    left.attachThread(0, replay.get(), 6);
    left.attachThread(1, replay.get(), 2);
    left.run(first_leg);
    CkptWriter w;
    left.saveState(w);

    SmtCore right(params);
    right.attachThread(0, replay.get(), 6);
    right.attachThread(1, replay.get(), 2);
    CkptReader r(w.data());
    right.restoreState(r);
    r.expectEnd();
    right.run(second_leg);

    EXPECT_EQ(right.cycle(), whole.cycle());
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        EXPECT_EQ(right.committedOf(t), whole.committedOf(t)) << t;
        EXPECT_EQ(right.executionsOf(t), whole.executionsOf(t)) << t;
    }
    for (const std::string &name : whole.stats().names())
        EXPECT_EQ(right.stats().value(name), whole.stats().value(name))
            << name;
    std::remove(path.c_str());
}

// --- FAME-level equivalence ---------------------------------------------

FameParams
fastFame()
{
    FameParams fame;
    fame.minRepetitions = 3;
    fame.warmupRepetitions = 1;
    fame.maiv = 0.05;
    fame.warmupTolerance = 0.25;
    return fame;
}

/**
 * Record deep enough for the FAME run of @p prog against itself: the
 * synthetic arm runs first to learn the cycle budget, then the dump
 * covers it with the same never-wrap bound as dumpDepth().
 */
std::string
dumpForFame(const SyntheticProgram &prog, const std::string &name,
            int prio_p, int prio_s)
{
    const FameResult probe =
        runFame(CoreParams{}, &prog, &prog, prio_p, prio_s, fastFame());
    const std::string path = tracePath(name);
    dumpTrace(prog,
              dumpDepth(prog, probe.totalCycles + 10000), path);
    return path;
}

/**
 * Checkpoint-forked FAME: several priority pairs of the trace pair-mix
 * share one warm-up through a CkptManager; each forked measurement is
 * bit-identical to its cold (unforked) twin, which in turn equals the
 * synthetic generator's.
 */
TEST(TraceFame, CheckpointForkedRunsMatchColdAndSynthetic)
{
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem, 0.5);
    const std::string path = dumpForFame(prog, "fame_fork", 6, 1);
    const std::unique_ptr<TraceProgram> replay = loadTrace(path);

    const FameParams fame = fastFame();
    const CoreParams core;
    const std::pair<int, int> pairs[] = {{4, 4}, {6, 2}, {2, 6}, {5, 3}};

    CkptManager mgr;
    for (const auto &[p, s] : pairs) {
        const std::string label = "pair (" + std::to_string(p) + "," +
                                  std::to_string(s) + ")";
        const FameResult synth =
            runFame(core, &prog, &prog, p, s, fame);
        const FameResult cold =
            runFame(core, replay.get(), replay.get(), p, s, fame);
        const FameResult forked =
            runFame(core, replay.get(), replay.get(), p, s, fame,
                    &mgr, "trace-fork-test");
        expectSameFame(cold, synth, label + " cold vs synthetic");
        expectSameFame(forked, cold, label + " forked vs cold");
    }
    EXPECT_EQ(mgr.warms(), 1u);
    EXPECT_EQ(mgr.memForks(), 3u);
    std::remove(path.c_str());
}

/**
 * Store-resumed FAME: trace jobs written through a persistent result
 * store are served back validated and bit-identical by a later
 * process (modeled as a fresh runner + cache), keyed by the trace's
 * content fingerprint.
 */
TEST(TraceFame, StoreResumedRunsAreServedBitIdentical)
{
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem, 0.5);
    const std::string path = dumpForFame(prog, "fame_store", 6, 2);

    const std::string dir =
        ::testing::TempDir() + "p5sim_trace_store";
    std::vector<SimJob> batch;
    for (const auto &[p, s] :
         std::initializer_list<std::pair<int, int>>{{4, 4}, {6, 2}}) {
        SimJob job = SimJob::famePair(
            ProgramSpec::trace(path), ProgramSpec::trace(path), p, s,
            CoreParams{}, fastFame());
        batch.push_back(std::move(job));
    }

    ResultStore store(dir);
    ResultCache cache_a;
    SimRunner first(1, &cache_a);
    first.setStore(&store, /*read_through=*/false);
    const std::vector<SimResult> ran = first.run(batch);
    EXPECT_EQ(store.writes(), batch.size());

    ResultCache cache_b;
    SimRunner second(1, &cache_b);
    second.setStore(&store, /*read_through=*/true);
    const std::vector<SimResult> resumed = second.run(batch);
    EXPECT_EQ(store.hits(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectSameFame(resumed[i].fame, ran[i].fame,
                       "stored point " + std::to_string(i));
    std::remove(path.c_str());
}

// --- identity -----------------------------------------------------------

TEST(TraceIdentity, KeysEmbedContentFingerprintNotPath)
{
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt, 0.25);
    const std::string a = tracePath("id_a");
    const std::string b = tracePath("id_b");
    dumpTrace(prog, 2, a);
    dumpTrace(prog, 2, b);

    // Identical content at different paths keys identically...
    const ProgramSpec sa = ProgramSpec::trace(a);
    const ProgramSpec sb = ProgramSpec::trace(b);
    EXPECT_EQ(sa.key(), sb.key());
    EXPECT_NE(sa.key().find("trace:fp="), std::string::npos);

    // ...different content keys differently...
    const SyntheticProgram other = makeUbench(UbenchId::CpuInt, 0.5);
    const std::string c = tracePath("id_c");
    dumpTrace(other, 2, c);
    EXPECT_NE(ProgramSpec::trace(c).key(), sa.key());

    // ...and a trace never aliases the benchmark that recorded it.
    EXPECT_NE(sa.key(), ProgramSpec::ubench(UbenchId::CpuInt, 0.25).key());

    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(c.c_str());
}

/** Swapping the file underneath a keyed spec is fatal at build time. */
TEST(TraceIdentityDeath, FileSwapAfterKeyingIsFatal)
{
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt, 0.25);
    const std::string path = tracePath("swap");
    dumpTrace(prog, 2, path);
    const ProgramSpec spec = ProgramSpec::trace(path);

    const SyntheticProgram other = makeUbench(UbenchId::CpuInt, 0.5);
    dumpTrace(other, 2, path); // overwrite with different content
    EXPECT_FATAL(spec.build(), "changed since it was keyed");
    std::remove(path.c_str());
}

// --- validation ---------------------------------------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return text;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    os << text;
}

TEST(TraceValidation, LoaderRejectsCorruptFiles)
{
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem, 0.25);
    const std::string good_path = tracePath("valid");
    dumpTrace(prog, 2, good_path);
    const std::string good = readFile(good_path);

    // Pristine file loads.
    ASSERT_EQ(loadTrace(good_path)->records(), prog.instrsPerExecution() * 2);

    const std::string bad_path = tracePath("corrupt");

    // Truncated payload: size no longer matches the header.
    writeFile(bad_path, good.substr(0, good.size() - 10));
    EXPECT_FATAL(loadTrace(bad_path), "payload");

    // Garbage header.
    writeFile(bad_path, "not a trace at all\n");
    EXPECT_FATAL(loadTrace(bad_path), "");

    // Version skew: future versions are refused, not misparsed.
    std::string skewed = good;
    const std::string v1 = "\"version\": 1";
    const auto at = skewed.find(v1);
    ASSERT_NE(at, std::string::npos);
    skewed.replace(at, v1.size(), "\"version\":2");
    writeFile(bad_path, skewed);
    EXPECT_FATAL(loadTrace(bad_path), "version");

    // Flipped payload byte: caught by the checksum.
    std::string flipped = good;
    flipped[flipped.size() - 20] =
        static_cast<char>(flipped[flipped.size() - 20] ^ 0x5a);
    writeFile(bad_path, flipped);
    EXPECT_FATAL(loadTrace(bad_path), "checksum");

    std::remove(bad_path.c_str());
    std::remove(good_path.c_str());
}

TEST(TraceValidation, QuarantineFollowsBadFileDiscipline)
{
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt, 0.25);
    const std::string path = tracePath("quarantine");
    dumpTrace(prog, 2, path);
    writeFile(path, "garbage\n");

    const std::string bad = quarantineTrace(path);
    EXPECT_EQ(bad, path + ".bad");
    std::ifstream original(path);
    EXPECT_FALSE(original.good());
    std::ifstream moved(bad);
    EXPECT_TRUE(moved.good());
    std::remove(bad.c_str());
}

TEST(TraceValidationDeath, FatalWrappersNameTheProblem)
{
    const std::string path = tracePath("death");
    EXPECT_FATAL(readTraceHeader(path), "death");

    writeFile(path, "garbage\n");
    EXPECT_FATAL(loadTrace(path), "trace");

    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt, 0.25);
    dumpTrace(prog, 2, path);
    std::string truncated = readFile(path);
    truncated.resize(truncated.size() / 2);
    writeFile(path, truncated);
    EXPECT_FATAL(loadTrace(path), "payload");
    std::remove(path.c_str());
}

} // namespace
} // namespace p5
