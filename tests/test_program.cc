/**
 * @file
 * Unit tests for the synthetic-program model: patterns, builder,
 * program materialization, rewindable streams.
 */

#include <gtest/gtest.h>

#include "program/builder.hh"
#include "program/pattern.hh"
#include "program/program.hh"
#include "program/stream.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

// --- patterns ------------------------------------------------------------

TEST(MemPattern, StridedWrap)
{
    MemPattern p;
    p.base = 1000;
    p.stride = 64;
    p.footprint = 256;
    EXPECT_EQ(p.addressAt(0), 1000u);
    EXPECT_EQ(p.addressAt(1), 1064u);
    EXPECT_EQ(p.addressAt(4), 1000u); // wrapped
}

TEST(MemPattern, StartOffset)
{
    MemPattern p;
    p.base = 0;
    p.stride = 8;
    p.footprint = 64;
    p.start = 16;
    EXPECT_EQ(p.addressAt(0), 16u);
    EXPECT_EQ(p.addressAt(6), 0u); // (16 + 48) % 64
}

TEST(MemPattern, ZeroStrideIsConstant)
{
    MemPattern p;
    p.base = 5;
    p.stride = 0;
    p.footprint = 4096;
    p.start = 128;
    for (std::uint64_t k = 0; k < 10; ++k)
        EXPECT_EQ(p.addressAt(k), 133u);
}

TEST(BranchPattern, AlwaysAndNever)
{
    BranchPattern t;
    t.kind = BranchKind::AlwaysTaken;
    BranchPattern n;
    n.kind = BranchKind::NeverTaken;
    for (std::uint64_t k = 0; k < 20; ++k) {
        EXPECT_TRUE(t.directionAt(k));
        EXPECT_FALSE(n.directionAt(k));
    }
}

TEST(BranchPattern, Periodic)
{
    BranchPattern p;
    p.kind = BranchKind::Periodic;
    p.period = 4;
    int taken = 0;
    for (std::uint64_t k = 0; k < 40; ++k)
        if (p.directionAt(k))
            ++taken;
    EXPECT_EQ(taken, 10);
    EXPECT_TRUE(p.directionAt(3));
    EXPECT_FALSE(p.directionAt(0));
}

TEST(BranchPattern, RandomIsDeterministicAndBalanced)
{
    BranchPattern p;
    p.kind = BranchKind::Random;
    p.takenProb = 0.5;
    p.seed = 77;
    int taken = 0;
    for (std::uint64_t k = 0; k < 10000; ++k) {
        bool d = p.directionAt(k);
        ASSERT_EQ(d, p.directionAt(k)); // pure function of k
        if (d)
            ++taken;
    }
    EXPECT_NEAR(taken / 10000.0, 0.5, 0.03);
}

TEST(BranchPattern, ToStringVariants)
{
    BranchPattern p;
    p.kind = BranchKind::Random;
    p.takenProb = 0.25;
    EXPECT_EQ(p.toString(), "random p=0.25");
    p.kind = BranchKind::AlwaysTaken;
    EXPECT_EQ(p.toString(), "always-taken");
}

// --- builder & program ---------------------------------------------------

SyntheticProgram
tinyProgram(std::uint64_t iterations = 3)
{
    ProgramBuilder b("tiny");
    int back = b.alwaysTaken();
    int mem = b.memPattern(0x100, 8, 64);
    b.beginPhase(iterations);
    b.intAlu(0, 1, 2);
    b.load(3, mem);
    b.branch(back);
    return b.build();
}

TEST(Builder, BuildsExpectedShape)
{
    SyntheticProgram p = tinyProgram();
    EXPECT_EQ(p.name(), "tiny");
    ASSERT_EQ(p.phaseGeometry().size(), 1u);
    EXPECT_EQ(p.phaseGeometry()[0].bodySize, 3u);
    EXPECT_EQ(p.instrsPerExecution(), 9u);
}

TEST(BuilderDeath, InstrBeforePhaseIsFatal)
{
    ProgramBuilder b("bad");
    EXPECT_FATAL(b.intAlu(0, 1), "before beginPhase");
}

TEST(BuilderDeath, BadPatternIdIsFatal)
{
    ProgramBuilder b("bad");
    b.beginPhase(1);
    EXPECT_FATAL(b.load(0, 5), "bad pattern id");
}

TEST(Program, MaterializeIsPureFunctionOfIndex)
{
    SyntheticProgram p = tinyProgram();
    for (SeqNum s = 0; s < 30; ++s) {
        DynInstr a = p.materialize(s, 0);
        DynInstr b = p.materialize(s, 0);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.branchTaken, b.branchTaken);
        EXPECT_EQ(a.pc, b.pc);
    }
}

TEST(Program, AddressesAdvancePerIteration)
{
    SyntheticProgram p = tinyProgram();
    DynInstr first = p.materialize(1, 0);  // load, iteration 0
    DynInstr second = p.materialize(4, 0); // load, iteration 1
    EXPECT_EQ(first.addr + 8, second.addr);
}

TEST(Program, ExecutionsAt)
{
    SyntheticProgram p = tinyProgram(3); // 9 instrs per execution
    EXPECT_EQ(p.executionsAt(0), 0u);
    EXPECT_EQ(p.executionsAt(8), 0u);
    EXPECT_EQ(p.executionsAt(9), 1u);
    EXPECT_EQ(p.executionsAt(27), 3u);
}

TEST(Program, PcsAreDistinctAndStable)
{
    SyntheticProgram p = tinyProgram();
    DynInstr a = p.materialize(0, 0);
    DynInstr b = p.materialize(1, 0);
    DynInstr a2 = p.materialize(3, 0); // same static instr, next iter
    EXPECT_NE(a.pc, b.pc);
    EXPECT_EQ(a.pc, a2.pc);
}

TEST(Program, OpClassMixCountsIterations)
{
    SyntheticProgram p = tinyProgram(5);
    auto mix = p.opClassMix();
    EXPECT_EQ(mix[static_cast<int>(OpClass::IntAlu)], 5u);
    EXPECT_EQ(mix[static_cast<int>(OpClass::Load)], 5u);
    EXPECT_EQ(mix[static_cast<int>(OpClass::Branch)], 5u);
}

TEST(Program, MultiPhase)
{
    ProgramBuilder b("phased");
    b.beginPhase(2);
    b.intAlu(0, 1);
    b.beginPhase(3);
    b.fpAlu(32, 33);
    b.fpAlu(34, 32);
    SyntheticProgram p = b.build();
    EXPECT_EQ(p.instrsPerExecution(), 2u + 6u);
    // Index 0..1 phase 0; 2..7 phase 1.
    EXPECT_EQ(p.materialize(1, 0).op, OpClass::IntAlu);
    EXPECT_EQ(p.materialize(2, 0).op, OpClass::FpAlu);
    // Next execution starts over with phase 0.
    EXPECT_EQ(p.materialize(8, 0).op, OpClass::IntAlu);
}

TEST(ProgramDeath, EmptyProgramIsFatal)
{
    ProgramBuilder b("empty");
    EXPECT_FATAL(b.build(), "no phases");
}

// --- stream ----------------------------------------------------------------

TEST(Stream, FetchAdvancesAndRewinds)
{
    SyntheticProgram p = tinyProgram();
    InstrStream s(&p, 0);
    DynInstr i0 = s.fetch();
    DynInstr i1 = s.fetch();
    EXPECT_EQ(i0.seq, 0u);
    EXPECT_EQ(i1.seq, 1u);
    EXPECT_EQ(s.nextSeq(), 2u);

    s.rewindTo(1);
    DynInstr again = s.fetch();
    EXPECT_EQ(again.seq, 1u);
    EXPECT_EQ(again.op, i1.op);
    EXPECT_EQ(again.addr, i1.addr);
}

TEST(Stream, PeekDoesNotAdvance)
{
    SyntheticProgram p = tinyProgram();
    InstrStream s(&p, 1);
    DynInstr peeked = s.peek();
    DynInstr fetched = s.fetch();
    EXPECT_EQ(peeked.seq, fetched.seq);
    EXPECT_EQ(peeked.tid, 1);
}

TEST(Stream, RewindIsExactReplay)
{
    SyntheticProgram p = tinyProgram(100);
    InstrStream s(&p, 0);
    std::vector<DynInstr> first;
    for (int i = 0; i < 50; ++i)
        first.push_back(s.fetch());
    s.rewindTo(10);
    for (int i = 10; i < 50; ++i) {
        DynInstr d = s.fetch();
        EXPECT_EQ(d.addr, first[static_cast<size_t>(i)].addr);
        EXPECT_EQ(d.branchTaken,
                  first[static_cast<size_t>(i)].branchTaken);
    }
}

} // namespace
} // namespace p5
