/**
 * @file
 * The period skip's parts: instruction-source periods, the state
 * relativiser over the checkpoint bodies, the equal snapshots one
 * period apart, and where the detector confirms. The end-to-end
 * equivalence of skipped FAME runs is in test_fast_forward.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/state_walk.hh"
#include "core/smt_core.hh"
#include "fame/fame.hh"
#include "fame/period_skip.hh"
#include "program/builder.hh"
#include "program/trace.hh"
#include "test_helpers.hh"
#include "ubench/ubench.hh"
#include "workloads/spec_proxy.hh"

namespace p5 {
namespace {

// --- InstrSource::period() -------------------------------------------

/** Instructions @p a and @p b are the same apart from their seq. */
bool
sameApartFromSeq(DynInstr a, const DynInstr &b)
{
    a.seq = b.seq;
    return a.op == b.op && a.dst == b.dst && a.src0 == b.src0 &&
           a.src1 == b.src1 && a.addr == b.addr &&
           a.branchTaken == b.branchTaken && a.pc == b.pc &&
           a.prioNopReg == b.prioNopReg;
}

/**
 * The sequence repeats after period() executions, and after no proper
 * divisor of it: checked instruction by instruction.
 */
void
expectExactPeriod(const SyntheticProgram &prog, std::uint64_t executions)
{
    ASSERT_EQ(prog.period(), executions) << prog.name();
    const std::uint64_t ipe = prog.instrsPerExecution();
    const std::uint64_t n = prog.periodInstrs();
    ASSERT_EQ(n, executions * ipe);
    for (std::uint64_t s = 0; s < n; ++s)
        ASSERT_TRUE(sameApartFromSeq(prog.materialize(s, 0),
                                     prog.materialize(s + n, 0)))
            << prog.name() << " seq " << s;
    for (std::uint64_t d = 1; d < executions; ++d) {
        if (executions % d != 0)
            continue;
        bool differs = false;
        for (std::uint64_t s = 0; s < n && !differs; ++s)
            differs = !sameApartFromSeq(prog.materialize(s, 0),
                                        prog.materialize(s + d * ipe, 0));
        EXPECT_TRUE(differs) << prog.name() << " repeats after " << d;
    }
}

TEST(SourcePeriod, StridedPatternRepeatsAfterWholeFootprints)
{
    // 8 accesses of 48 bytes over 256 bytes cycle after 16 accesses
    // (256 / gcd(48, 256)), that is after 2 executions of 8 iterations.
    ProgramBuilder b("strided");
    const int pat = b.memPattern(0x1000, 48, 256);
    const int back = b.alwaysTaken();
    b.beginPhase(8);
    b.load(1, pat, 2);
    b.intAlu(3, 1);
    b.intAlu(2, 2);
    b.branch(back);
    expectExactPeriod(b.build(), 2);
}

TEST(SourcePeriod, PeriodicBranchFoldsIntoTheLcm)
{
    // A branch taken every 6th time, in a 4-iteration phase: 3 passes.
    ProgramBuilder b("periodic");
    const int every6 =
        b.branchPattern({.kind = BranchKind::Periodic, .period = 6});
    b.beginPhase(4);
    b.intAlu(1, 1);
    b.branch(every6);
    expectExactPeriod(b.build(), 3);
}

TEST(SourcePeriod, MicroBenchmarksAndProxies)
{
    expectExactPeriod(makeUbench(UbenchId::CpuInt, 0.5), 1);
    expectExactPeriod(makeUbench(UbenchId::LdintL1, 0.5), 8);
    expectExactPeriod(makeSpecProxy(SpecProxyId::H264ref, 0.5), 64);
}

TEST(SourcePeriod, RandomBranchesNeverRepeat)
{
    const SyntheticProgram prog = makeUbench(UbenchId::BrMiss, 0.5);
    EXPECT_EQ(prog.periodInstrs(), 0u);
    EXPECT_EQ(prog.period(), 0u);

    CoreParams params;
    SmtCore core(params);
    core.attachThread(0, &prog, 4);
    EXPECT_FALSE(core.periodSkipAllowed());
}

TEST(SourcePeriod, ATraceRepeatsAfterItsRecordedExecutions)
{
    const SyntheticProgram prog = makeUbench(UbenchId::LdintL1, 0.25);
    const std::string path =
        ::testing::TempDir() + "p5sim_period_one.trace";
    dumpTrace(prog, 1, path);
    const std::unique_ptr<TraceProgram> replay = loadTrace(path);
    EXPECT_EQ(replay->period(), 1u);
    EXPECT_EQ(replay->periodInstrs(), prog.instrsPerExecution());
    std::remove(path.c_str());
}

// --- StateRelativiser ------------------------------------------------

/** One field of every kind, in a checkpoint body of its own. */
struct AllKinds
{
    std::uint64_t plain = 7;
    Counter counter;
    Cycle cycle = 1005;
    Cycle readyAt = 1010;
    Cycle walk = 990;
    SeqNum seq = 495;
    std::uint64_t stamp = 95;
    std::uint64_t epoch = 3;
    std::uint32_t slot = 6;
    SeqNum pos = 500;
    std::uint64_t progress = 9;
    Cycle event = 900;
    std::uint64_t probe = 11;

    template <class Self, class Io>
    static void
    ckpt(Self &self, Io &io)
    {
        io.u64(self.plain);
        io.counter(self.counter);
        io.u64(self.cycle, field::cycle);
        io.u64(self.readyAt, field::readyAt);
        io.u64(self.walk, field::walkAge(30));
        io.u64(self.seq, field::seq(0));
        io.u64(self.stamp, field::stamp);
        io.u64(self.epoch, field::epoch(0));
        io.u32(self.slot, field::slot(0));
        io.u64(self.pos, field::streamPos(0));
        io.u64(self.progress, field::progress(0));
        io.u64(self.event, field::event(0));
        io.u64(self.probe, field::probe);
    }
};

/** Bases matching AllKinds' defaults at cycle 1000. */
RelBases
basesAt(Cycle now)
{
    RelBases b;
    b.now = now;
    b.stamp = 100;
    b.thread[0] = {.pos = 500, .epoch = 3, .head = 4, .capacity = 16,
                   .period = 50};
    return b;
}

StateSnapshot
relativise(const AllKinds &s, const RelBases &bases)
{
    StateSnapshot snap;
    StateRelativiser rel(bases, snap);
    AllKinds::ckpt(s, rel);
    return snap;
}

/** The same state one "period" later: every base and field moved. */
TEST(StateRelativiser, ShiftedStateIsTheSame)
{
    const AllKinds a;
    AllKinds b = a;
    b.counter += 40;
    b.cycle += 200;
    b.readyAt += 200;
    b.walk += 200;
    b.seq += 100;
    b.stamp += 30;
    b.epoch += 2;
    b.slot = (b.slot + 5) % 16;
    b.pos += 100; // two source periods
    b.progress += 4;
    b.event += 150;
    b.probe += 1;
    RelBases later = basesAt(1200);
    later.stamp += 30;
    later.thread[0].pos += 100;
    later.thread[0].epoch += 2;
    later.thread[0].head = (later.thread[0].head + 5) % 16;

    const StateSnapshot sa = relativise(a, basesAt(1000));
    const StateSnapshot sb = relativise(b, later);
    EXPECT_TRUE(sa.sameState(sb));
    EXPECT_EQ(sa.hash, sb.hash);
    // Counters, progress, events and probes are raw only.
    EXPECT_EQ(sa.raw.size(), 13u);
    EXPECT_EQ(sa.canon.size(), 9u);
}

/** Perturbing one field of each compared kind changes the state. */
TEST(StateRelativiser, EachComparedKindIsCompared)
{
    const RelBases bases = basesAt(1000);
    const StateSnapshot ref = relativise(AllKinds{}, bases);
    const std::vector<std::pair<const char *, void (*)(AllKinds &)>>
        perturbations = {
            {"plain", [](AllKinds &s) { ++s.plain; }},
            {"cycle", [](AllKinds &s) { ++s.cycle; }},
            {"readyAt (future)", [](AllKinds &s) { ++s.readyAt; }},
            {"walk age (within horizon)", [](AllKinds &s) { ++s.walk; }},
            {"seq", [](AllKinds &s) { ++s.seq; }},
            {"stamp", [](AllKinds &s) { ++s.stamp; }},
            {"epoch", [](AllKinds &s) { ++s.epoch; }},
            {"slot", [](AllKinds &s) { ++s.slot; }},
            {"stream position", [](AllKinds &s) { ++s.pos; }},
            {"never_cycle", [](AllKinds &s) { s.cycle = never_cycle; }},
        };
    for (const auto &[what, perturb] : perturbations) {
        AllKinds s;
        perturb(s);
        const StateSnapshot snap = relativise(s, bases);
        EXPECT_FALSE(ref.sameState(snap)) << what;
        EXPECT_NE(ref.hash, snap.hash) << what;
    }
}

/** Values whose every instance acts alike relativise alike. */
TEST(StateRelativiser, PastReadyCyclesAndOldWalksActAlike)
{
    const RelBases bases = basesAt(1000);
    AllKinds a, b;
    a.readyAt = 990;
    b.readyAt = 1000; // not after now: free, like any past cycle
    a.walk = 900;
    b.walk = 969; // both more than 30 cycles ago
    a.counter += 5;
    a.progress = 1;
    a.event = 3;
    a.probe = 0;
    EXPECT_TRUE(relativise(a, bases).sameState(relativise(b, bases)));

    b.walk = 970; // exactly 30 ago: still contended
    EXPECT_FALSE(relativise(a, bases).sameState(relativise(b, bases)));
}

// --- SmtCore snapshots -------------------------------------------------

/** Run @p core until thread @p tid completes @p execs executions. */
void
runToBoundary(SmtCore &core, ThreadId tid, std::uint64_t execs)
{
    ASSERT_TRUE(core.runUntilExecutions(tid, execs, 10'000'000));
}

/**
 * A lone cpu_int thread settles into a five-execution period (its
 * source repeats every execution, but the 5-wide dispatch groups
 * realign only every fifth): its snapshots at boundaries five
 * executions apart are equal once the caches and predictor are warm,
 * and perturbing the live core breaks the equality.
 */
TEST(StateSnapshotTest, BoundariesOnePeriodApartAreEqual)
{
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt, 0.25);
    ASSERT_EQ(prog.period(), 1u);
    CoreParams params;
    SmtCore core(params);
    core.attachThread(0, &prog, 4);
    runToBoundary(core, 0, 20);
    StateSnapshot a, b;
    core.snapshotState(a);
    runToBoundary(core, 0, 21);
    core.snapshotState(b);
    EXPECT_FALSE(a.sameState(b)) << "one execution is not a period";
    runToBoundary(core, 0, 25);
    core.snapshotState(b);
    ASSERT_GT(b.cycle, a.cycle);
    EXPECT_TRUE(a.sameState(b));
    EXPECT_EQ(a.hash, b.hash);

    const auto same = [&core, &a] {
        StateSnapshot now;
        core.snapshotState(now);
        return a.sameState(now);
    };
    ThreadState &ts = core.thread(0);
    ts.decodeBlockedUntil = core.cycle() + 3;
    EXPECT_FALSE(same()) << "a pending redirect";
    ts.decodeBlockedUntil = 0;
    EXPECT_TRUE(same());
    ++ts.epoch;
    EXPECT_FALSE(same()) << "the squash epoch";
    --ts.epoch;
    core.setPriorityPair(5, 0);
    EXPECT_FALSE(same()) << "the priorities";
}

/**
 * jumpPeriods() lands where ticking would: jump two periods from a
 * confirmed pair, tick a third, and compare every stat with a core
 * that ticked all the way.
 */
TEST(StateSnapshotTest, JumpEqualsTicking)
{
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt, 0.25);
    CoreParams params;
    SmtCore jumped(params), ticked(params);
    test::withCheckers(jumped);
    for (SmtCore *core : {&jumped, &ticked})
        core->attachThread(0, &prog, 4);
    runToBoundary(jumped, 0, 20);
    StateSnapshot a, b;
    jumped.snapshotState(a);
    runToBoundary(jumped, 0, 25);
    jumped.snapshotState(b);
    ASSERT_TRUE(a.sameState(b));

    jumped.jumpPeriods(2, a, b);
    EXPECT_EQ(jumped.periodCyclesSkipped(), 2 * (b.cycle - a.cycle));
    EXPECT_EQ(jumped.executionsOf(0), 35u);
    runToBoundary(jumped, 0, 38);
    runToBoundary(ticked, 0, 38);
    EXPECT_EQ(jumped.cycle(), ticked.cycle());
    for (const std::string &name : ticked.stats().names())
        EXPECT_EQ(jumped.stats().value(name), ticked.stats().value(name))
            << name;
    EXPECT_EQ(jumped.lastExecutionCycleOf(0),
              ticked.lastExecutionCycleOf(0));
    EXPECT_EQ(jumped.checks().failureCount(), 0u);
}

// --- PeriodDetector ----------------------------------------------------

/**
 * cpu_int+ldint_l1 at (2,6) recurs right after FAME's default warm-up.
 * The step-0 anchor, at the measurement's first reference boundary
 * (cpu_int, the lower priority, completing an execution), confirms it:
 * A is that boundary, and B the first later reference boundary whose
 * state equals A's, exactly one period on.
 */
TEST(PeriodDetectorTest, ConfirmsFromTheFirstReferenceBoundary)
{
    const SyntheticProgram cpu = makeUbench(UbenchId::CpuInt);
    const SyntheticProgram l1 = makeUbench(UbenchId::LdintL1);
    const FameParams fame;
    CoreParams params;
    SmtCore core(params);
    core.attachThread(0, &cpu, canonical_warm_priority);
    core.attachThread(1, &l1, canonical_warm_priority);
    FameRunner(fame).runWarmup(core);
    core.setPriorityPair(2, 6);

    PeriodDetector period(core, true);
    ASSERT_TRUE(period.active());
    const Cycle limit = core.cycle() + fame.maxCycles;
    std::uint64_t ref_execs = core.executionsOf(0);
    StateSnapshot first, now;
    bool have_first = false;
    std::vector<Cycle> recurrences; // reference boundaries equal to first
    bool found = false;
    while (!found &&
           core.runUntil(limit, [&] { return period.boundary(core); })) {
        found = period.onBoundary(core);
        if (core.executionsOf(0) == ref_execs)
            continue;
        ref_execs = core.executionsOf(0);
        core.snapshotState(now);
        if (!have_first) {
            first = now;
            have_first = true;
        } else if (first.sameState(now))
            recurrences.push_back(now.cycle);
    }
    ASSERT_TRUE(found);
    EXPECT_EQ(period.a().cycle, first.cycle);
    ASSERT_EQ(recurrences.size(), 1u);
    EXPECT_EQ(period.b().cycle, recurrences.front());
    EXPECT_TRUE(period.a().sameState(period.b()));
}

} // namespace
} // namespace p5
