/**
 * @file
 * Tests of the p5check runtime-verification subsystem: failure records
 * and registry mechanics, the independently recomputed decode-slot
 * formula, conformance of the live core on every (PrioP, PrioS) pair,
 * and targeted corruption injections proving that each standard checker
 * detects its class of violation.
 *
 * The corruption tests drive a standalone collect-mode CheckRegistry by
 * hand (prime -> corrupt -> re-check) and never tick the core after
 * corrupting it, so they behave identically in -DP5SIM_CHECK=ON builds,
 * where the core's own registry is fatal.
 */

#include <gtest/gtest.h>

#include <memory>

#include "check/check.hh"
#include "check/checkers.hh"
#include "common/log.hh"
#include "core/smt_core.hh"
#include "isa/op_class.hh"
#include "test_helpers.hh"

namespace p5 {

/** Reaches into the LMQ's derived state to corrupt it. */
struct LmqTestAccess
{
    static void
    countBusy(Lmq &q, ThreadId tid)
    {
        ++q.busy_[static_cast<std::size_t>(tid)];
    }

    static void
    delayNextEdge(Lmq &q)
    {
        ++q.edges_.front().cycle;
    }
};

namespace {

using check::CheckFailure;
using check::CheckRegistry;
using check::DecodeSlotChecker;

/** A core running two busy integer threads for @p cycles. */
std::unique_ptr<SmtCore>
busyCore(const SyntheticProgram &p, const SyntheticProgram &s,
         Cycle cycles)
{
    CoreParams params;
    auto core = std::make_unique<SmtCore>(params);
    core->attachThread(0, &p, 4);
    core->attachThread(1, &s, 4);
    core->run(cycles);
    return core;
}

// --- failure records and registry mechanics ---------------------------

TEST(CheckFailureTest, DescribeMentionsAllFields)
{
    CheckFailure f;
    f.cycle = 1234;
    f.tid = 1;
    f.checker = "gct";
    f.invariant = "capacity";
    f.expected = "<= 20 groups";
    f.actual = "21";
    const std::string msg = f.describe();
    EXPECT_NE(msg.find("1234"), std::string::npos) << msg;
    EXPECT_NE(msg.find("gct"), std::string::npos) << msg;
    EXPECT_NE(msg.find("capacity"), std::string::npos) << msg;
    EXPECT_NE(msg.find("<= 20 groups"), std::string::npos) << msg;
    EXPECT_NE(msg.find("21"), std::string::npos) << msg;
}

TEST(CheckRegistryTest, AddAndQueryCheckers)
{
    CheckRegistry reg;
    EXPECT_EQ(reg.numCheckers(), 0u);
    EXPECT_FALSE(reg.has("decode-slot"));
    reg.add(std::make_unique<DecodeSlotChecker>());
    EXPECT_EQ(reg.numCheckers(), 1u);
    EXPECT_TRUE(reg.has("decode-slot"));
    EXPECT_FALSE(reg.fatal());
}

TEST(CheckRegistryTest, InstallStandardCheckersIsIdempotent)
{
    CoreParams params;
    SmtCore core(params);
    check::installStandardCheckers(core);
    check::installStandardCheckers(core);
    EXPECT_EQ(core.checks().numCheckers(), 5u);
    for (const char *name : {"decode-slot", "gct", "flow", "mem", "ipc"})
        EXPECT_TRUE(core.checks().has(name)) << name;
}

TEST(CheckRegistryTest, HookRunsEveryTickOnceCreated)
{
#ifndef P5SIM_CHECK
    // Default builds only grow a registry when someone asks for one.
    {
        CoreParams params;
        SmtCore core(params);
        EXPECT_FALSE(core.hasChecks());
    }
#endif
    {
        // Every cycle reaches the registry: ticked cycles through
        // onCycle(), fast-forwarded idle gaps through onSkip().
        CoreParams params;
        SmtCore core(params);
        CheckRegistry &reg = core.checks();
        EXPECT_TRUE(core.hasChecks());
        core.run(50);
        EXPECT_EQ(reg.cyclesChecked() + reg.cyclesSkipped(), 50u);
    }
    {
        // Without fast-forward every cycle is a checked tick.
        CoreParams params;
        params.fastForward = false;
        SmtCore core(params);
        CheckRegistry &reg = core.checks();
        const std::uint64_t before = reg.cyclesChecked();
        core.run(50);
        EXPECT_EQ(reg.cyclesChecked(), before + 50);
        EXPECT_EQ(reg.cyclesSkipped(), 0u);
    }
}

TEST(CheckRegistryTest, CollectModeCapsStoredFailures)
{
    CheckRegistry reg;
    auto checker = std::make_unique<DecodeSlotChecker>();
    auto *slot = checker.get();
    reg.add(std::move(checker));

    // An idle-pair observation with decode activity violates
    // slot-activity-when-idle on every call.
    DecodeSlotChecker::Observation obs;
    obs.prioP = 0;
    obs.prioS = 0;
    obs.decoded[0] = 1;
    while (reg.failureCount() <= CheckRegistry::max_stored_failures)
        slot->check(obs);

    EXPECT_EQ(reg.failures().size(), CheckRegistry::max_stored_failures);
    EXPECT_GT(reg.failureCount(), CheckRegistry::max_stored_failures);

    reg.clearFailures();
    EXPECT_TRUE(reg.failures().empty());
    EXPECT_EQ(reg.failureCount(), 0u);
}

TEST(CheckRegistryTest, FailuresAreCountedByTheLogLayer)
{
    const std::uint64_t before = checkFailCount();
    CheckRegistry reg;
    auto checker = std::make_unique<DecodeSlotChecker>();
    auto *slot = checker.get();
    reg.add(std::move(checker));
    DecodeSlotChecker::Observation obs;
    obs.prioP = 0;
    obs.prioS = 0;
    obs.decoded[1] = 3;
    slot->check(obs);
    EXPECT_GT(checkFailCount(), before);
}

// --- the independent decode-slot formula ------------------------------

TEST(DecodeSlotFormulaTest, UnequalPairGivesRMinusOneToOne)
{
    // (6,2): |diff| = 4, R = 32 -> thread 0 owns 31 slots, thread 1 one
    // minority slot of minoritySlotWidth.
    int owned[2] = {0, 0};
    for (Cycle c = 0; c < 32; ++c) {
        auto g = DecodeSlotChecker::expectedGrant(6, 2, c, 5, 2);
        ASSERT_GE(g.owner, 0);
        ++owned[g.owner];
        EXPECT_EQ(g.maxWidth, g.owner == 0 ? 5 : 2);
    }
    EXPECT_EQ(owned[0], 31);
    EXPECT_EQ(owned[1], 1);
}

TEST(DecodeSlotFormulaTest, MirroredPairFavorsTheSecondary)
{
    int owned[2] = {0, 0};
    for (Cycle c = 0; c < 8; ++c) { // (3,5): R = 8
        auto g = DecodeSlotChecker::expectedGrant(3, 5, c, 5, 2);
        ASSERT_GE(g.owner, 0);
        ++owned[g.owner];
    }
    EXPECT_EQ(owned[0], 1);
    EXPECT_EQ(owned[1], 7);
}

TEST(DecodeSlotFormulaTest, EqualPrioritiesAlternateAtFullWidth)
{
    for (Cycle c = 0; c < 8; ++c) {
        auto g = DecodeSlotChecker::expectedGrant(4, 4, c, 5, 2);
        EXPECT_EQ(g.owner, static_cast<ThreadId>(c % 2));
        EXPECT_EQ(g.maxWidth, 5);
    }
}

TEST(DecodeSlotFormulaTest, SpecialPriorities)
{
    // Both off: nobody decodes.
    EXPECT_LT(DecodeSlotChecker::expectedGrant(0, 0, 7, 5, 2).owner, 0);

    // Priority 7 (or a shut-off sibling) is ST mode, every cycle.
    for (Cycle c = 0; c < 4; ++c) {
        EXPECT_EQ(DecodeSlotChecker::expectedGrant(7, 3, c, 5, 2).owner, 0);
        EXPECT_EQ(DecodeSlotChecker::expectedGrant(4, 0, c, 5, 2).owner, 0);
        EXPECT_EQ(DecodeSlotChecker::expectedGrant(2, 7, c, 5, 2).owner, 1);
        EXPECT_EQ(DecodeSlotChecker::expectedGrant(0, 5, c, 5, 2).owner, 1);
    }

    // Low-power (1,1): one single-instruction slot per 32 cycles,
    // alternating owner; idle otherwise.
    int grants = 0;
    for (Cycle c = 0; c < 64; ++c) {
        auto g = DecodeSlotChecker::expectedGrant(1, 1, c, 5, 2);
        if (g.owner >= 0) {
            ++grants;
            EXPECT_EQ(g.maxWidth, 1);
        }
    }
    EXPECT_EQ(grants, 2);
    EXPECT_NE(DecodeSlotChecker::expectedGrant(1, 1, 0, 5, 2).owner,
              DecodeSlotChecker::expectedGrant(1, 1, 32, 5, 2).owner);
}

// --- live-core conformance over every priority pair -------------------

/** All 36 Dual-mode pairs, 10k cycles each, full suite, zero failures. */
class SlotConformanceTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SlotConformanceTest, StandardCheckersStaySilent)
{
    const auto [prio_p, prio_s] = GetParam();
    CoreParams params;
    auto p = test::nops(100000);
    auto s = test::nops(100000);
    SmtCore core(params);
    check::installStandardCheckers(core);
    core.checks().setFatal(false);
    core.attachThread(0, &p, prio_p);
    core.attachThread(1, &s, prio_s);
    core.setPriorityPair(prio_p, prio_s);
    core.run(10000);
    EXPECT_EQ(core.checks().failureCount(), 0u)
        << core.checks().failures().front().describe();
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, SlotConformanceTest,
    ::testing::Combine(::testing::Range(1, 7), ::testing::Range(1, 7)),
    [](const auto &info) {
        return "P" + std::to_string(std::get<0>(info.param)) + "S" +
               std::to_string(std::get<1>(info.param));
    });

TEST(SlotConformanceExtraTest, SpecialModesStaySilent)
{
    // ST mode via priority 7, a shut-off sibling, and a mixed workload.
    struct Case
    {
        int prioP, prioS;
    };
    for (const Case c : {Case{7, 2}, Case{2, 7}, Case{6, 1}}) {
        CoreParams params;
        auto p = test::independentAlus(100000);
        auto s = test::serialChain(100000);
        SmtCore core(params);
        check::installStandardCheckers(core);
        core.checks().setFatal(false);
        core.attachThread(0, &p, c.prioP);
        core.attachThread(1, &s, c.prioS);
        core.run(5000);
        EXPECT_EQ(core.checks().failureCount(), 0u)
            << "(" << c.prioP << "," << c.prioS << "): "
            << core.checks().failures().front().describe();
    }
}

TEST(SlotConformanceExtraTest, MemoryBoundWorkloadStaysSilent)
{
    CoreParams params;
    auto p = test::dramChase(100000);
    auto s = test::randomBranches(100000);
    SmtCore core(params);
    check::installStandardCheckers(core);
    core.checks().setFatal(false);
    core.attachThread(0, &p, 5);
    core.attachThread(1, &s, 3);
    core.run(8000);
    EXPECT_EQ(core.checks().failureCount(), 0u)
        << core.checks().failures().front().describe();
}

// --- corruption injection: every checker must catch its violation -----

/**
 * Prime @p reg on @p core (baseline for the delta checkers), assert it
 * is silent on intact state, and return the cycle to re-check at.
 */
Cycle
primeSilent(CheckRegistry &reg, const SmtCore &core)
{
    reg.onCycle(core, core.cycle());
    EXPECT_EQ(reg.failureCount(), 0u);
    return core.cycle() + 1;
}

TEST(CheckCorruptionTest, GctCheckerCatchesLostGroup)
{
    auto p = test::independentAlus(100000);
    auto s = test::independentAlus(100000);
    auto core = busyCore(p, s, 200);
    while (core->gct().empty(0))
        core->tick();

    CheckRegistry reg;
    reg.add(std::make_unique<check::GctChecker>());
    const Cycle next = primeSilent(reg, *core);

    // Retire a group behind the core's back: the GCT no longer covers
    // the in-flight window.
    core->gct().popOldest(0);

    reg.onCycle(*core, next);
    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().checker, "gct");
}

TEST(CheckCorruptionTest, GctCheckerCatchesAnUnfinishedCountDrift)
{
    auto p = test::independentAlus(100000);
    auto s = test::independentAlus(100000);
    auto core = busyCore(p, s, 200);
    const InFlight *victim = nullptr;
    for (Cycle guard = 0; guard < 1000 && !victim; ++guard) {
        for (const InFlight &e : core->thread(0).window)
            if (e.phase != InstrPhase::Finished) {
                victim = &e;
                break;
            }
        if (!victim)
            core->tick();
    }
    ASSERT_NE(victim, nullptr);

    CheckRegistry reg;
    reg.add(std::make_unique<check::GctChecker>());
    const Cycle next = primeSilent(reg, *core);

    // Count an instruction finished that never finished.
    core->gct().finishOne(0, victim->gctGroup, victim->di.seq);

    reg.onCycle(*core, next);
    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().checker, "gct");
    EXPECT_EQ(reg.failures().front().invariant, "group-unfinished");
}

TEST(CheckCorruptionTest, FlowCheckerCatchesForgedReadyEntry)
{
    auto p = test::independentAlus(100000);
    auto s = test::independentAlus(100000);
    auto core = busyCore(p, s, 200);

    // Find a window entry that is legitimately *not* in the ready
    // queues and forge a queue reference to it.
    const InFlight *victim = nullptr;
    for (Cycle guard = 0; guard < 1000 && !victim; ++guard) {
        for (const InFlight &e : core->thread(0).window)
            if (!e.inReadyQueue) {
                victim = &e;
                break;
            }
        if (!victim)
            core->tick();
    }
    ASSERT_NE(victim, nullptr);

    CheckRegistry reg;
    reg.add(std::make_unique<check::FlowChecker>());
    const Cycle next = primeSilent(reg, *core);

    core->readyQueue().push(FuClass::FX, {.stamp = victim->stamp,
                                          .seq = victim->di.seq,
                                          .epoch = victim->epoch,
                                          .tid = 0});

    reg.onCycle(*core, next);
    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().checker, "flow");
}

TEST(CheckCorruptionTest, FlowCheckerCatchesADroppedWakeEdge)
{
    auto p = test::serialChain(100000);
    auto s = test::serialChain(100000);
    auto core = busyCore(p, s, 200);
    ThreadState &ts = core->thread(0);
    InFlight *producer = nullptr;
    for (Cycle guard = 0; guard < 1000 && !producer; ++guard) {
        for (InFlight &e : ts.window)
            if (e.wakeHead != no_wake_edge) {
                producer = &e;
                break;
            }
        if (!producer)
            core->tick();
    }
    ASSERT_NE(producer, nullptr);

    CheckRegistry reg;
    reg.add(std::make_unique<check::FlowChecker>());
    const Cycle next = primeSilent(reg, *core);

    // Unlink the youngest waiting consumer: it still counts the pending
    // source, but no completion will ever wake it.
    producer->wakeHead = ts.nextWake(producer->wakeHead);

    reg.onCycle(*core, next);
    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().checker, "flow");
    EXPECT_EQ(reg.failures().front().invariant, "wake-list");
}

TEST(CheckCorruptionTest, MemCheckerCatchesPhantomFills)
{
    auto p = test::nops(100000);
    auto s = test::nops(100000);
    auto core = busyCore(p, s, 200);

    CheckRegistry reg;
    reg.add(std::make_unique<check::MemChecker>());
    const Cycle next = primeSilent(reg, *core);

    // Fill L1 lines behind the hierarchy's back: the cache counts the
    // misses, but no thread's miss counter does.
    core->hierarchy().l1d().access(0x10000);
    core->hierarchy().l1d().access(0x20000);

    reg.onCycle(*core, next);
    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().checker, "mem");
}

/** A core running two DRAM-bound threads, with LMQ windows stored. */
std::unique_ptr<SmtCore>
missingCore(const SyntheticProgram &p, const SyntheticProgram &s)
{
    auto core = busyCore(p, s, 2000);
    while (core->lmq().edges().empty())
        core->tick();
    return core;
}

TEST(CheckCorruptionTest, MemCheckerCatchesALmqBusyCountDrift)
{
    auto p = test::dramChase();
    auto s = test::dramChase();
    auto core = missingCore(p, s);

    CheckRegistry reg;
    reg.add(std::make_unique<check::MemChecker>());
    const Cycle next = primeSilent(reg, *core);

    LmqTestAccess::countBusy(core->lmq(), 1);

    reg.onCycle(*core, next);
    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().checker, "mem");
    EXPECT_EQ(reg.failures().front().invariant, "lmq-busy-count");
}

TEST(CheckCorruptionTest, MemCheckerCatchesALmqNextEdgeDrift)
{
    auto p = test::dramChase();
    auto s = test::dramChase();
    auto core = missingCore(p, s);

    CheckRegistry reg;
    reg.add(std::make_unique<check::MemChecker>());
    const Cycle next = primeSilent(reg, *core);

    LmqTestAccess::delayNextEdge(core->lmq());

    reg.onCycle(*core, next);
    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().checker, "mem");
    EXPECT_EQ(reg.failures().front().invariant, "lmq-edge");
}

TEST(CheckCorruptionTest, MemCheckerCatchesALmqOutOfSync)
{
    auto p = test::dramChase();
    auto s = test::dramChase();
    auto core = missingCore(p, s);

    CheckRegistry reg;
    reg.add(std::make_unique<check::MemChecker>());
    const Cycle next = primeSilent(reg, *core);

    // Advance the queue behind the core's back.
    core->lmq().advanceTo(core->cycle() + 5);

    reg.onCycle(*core, next);
    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().checker, "mem");
    EXPECT_EQ(reg.failures().front().invariant, "lmq-sync");
}

TEST(CheckCorruptionTest, IpcCheckerCatchesCommitMiscount)
{
    auto p = test::independentAlus(100000);
    auto s = test::independentAlus(100000);
    auto core = busyCore(p, s, 200);

    CheckRegistry reg;
    reg.add(std::make_unique<check::IpcChecker>());
    const Cycle next = primeSilent(reg, *core);

    // Bump the architectural commit count without the stats counter.
    core->thread(0).committed += 3;

    reg.onCycle(*core, next);
    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().checker, "ipc");
}

TEST(CheckCorruptionTest, DecodeSlotCheckerCatchesSlotTheft)
{
    CheckRegistry reg;
    auto checker = std::make_unique<DecodeSlotChecker>();
    auto *slot = checker.get();
    reg.add(std::move(checker));

    // Cycle 0 of pair (6,2) belongs to thread 0; hand the sibling a
    // decode anyway.
    const auto expect = DecodeSlotChecker::expectedGrant(6, 2, 0, 5, 2);
    ASSERT_EQ(expect.owner, 0);
    DecodeSlotChecker::Observation obs;
    obs.prioP = 6;
    obs.prioS = 2;
    obs.granted[0] = 1;
    obs.decoded[0] = 1;
    obs.decoded[1] = 2;
    slot->check(obs);

    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().checker, "decode-slot");
    EXPECT_EQ(reg.failures().front().invariant, "sibling-decode");
}

TEST(CheckCorruptionTest, DecodeSlotCheckerCatchesOverwideDecode)
{
    CheckRegistry reg;
    auto checker = std::make_unique<DecodeSlotChecker>();
    auto *slot = checker.get();
    reg.add(std::move(checker));

    DecodeSlotChecker::Observation obs;
    obs.prioP = 4;
    obs.prioS = 2; // R = 8; cycle 0 -> thread 0 at full width
    obs.granted[0] = 1;
    obs.decoded[0] = 9; // wider than decodeWidth and groupSize
    slot->check(obs);

    ASSERT_GT(reg.failureCount(), 0u);
    EXPECT_EQ(reg.failures().front().invariant, "decode-width");
}

TEST(CheckDeathTest, FatalModePanicsOnViolation)
{
    auto p = test::independentAlus(100000);
    auto s = test::independentAlus(100000);
    auto core = busyCore(p, s, 200);

    CheckRegistry reg(/*fatal=*/true);
    reg.add(std::make_unique<check::IpcChecker>());
    reg.onCycle(*core, core->cycle()); // prime; intact state is silent

    core->thread(0).committed += 3;
    EXPECT_DEATH(reg.onCycle(*core, core->cycle() + 1),
                 "p5check violation");
}

} // namespace
} // namespace p5
