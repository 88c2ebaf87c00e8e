/**
 * @file
 * Unit tests for the ISA module: op classes, latencies, FU mapping,
 * dynamic instruction helpers.
 */

#include <gtest/gtest.h>

#include "isa/instruction.hh"
#include "isa/op_class.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

TEST(OpClass, NamesRoundTrip)
{
    for (int i = 0; i < num_op_classes; ++i) {
        auto oc = static_cast<OpClass>(i);
        EXPECT_EQ(opClassFromName(opClassName(oc)), oc);
    }
}

TEST(OpClassDeath, UnknownNameIsFatal)
{
    EXPECT_FATAL(opClassFromName("NotAnOp"), "unknown op class");
}

TEST(OpClass, FuMapping)
{
    EXPECT_EQ(fuClassOf(OpClass::IntAlu), FuClass::FX);
    EXPECT_EQ(fuClassOf(OpClass::IntMul), FuClass::FX);
    EXPECT_EQ(fuClassOf(OpClass::FpAlu), FuClass::FP);
    EXPECT_EQ(fuClassOf(OpClass::Load), FuClass::LS);
    EXPECT_EQ(fuClassOf(OpClass::Store), FuClass::LS);
    EXPECT_EQ(fuClassOf(OpClass::Branch), FuClass::BR);
    EXPECT_EQ(fuClassOf(OpClass::Nop), FuClass::None);
    EXPECT_EQ(fuClassOf(OpClass::PrioNop), FuClass::None);
}

TEST(OpClass, LatenciesArePositive)
{
    for (int i = 0; i < num_op_classes; ++i)
        EXPECT_GE(opLatency(static_cast<OpClass>(i)), 1);
}

TEST(OpClass, RelativeLatencies)
{
    // Long-latency classes must actually be longer: the paper's whole
    // characterization rests on this distinction.
    EXPECT_GT(opLatency(OpClass::IntMul), opLatency(OpClass::IntAlu));
    EXPECT_GT(opLatency(OpClass::FpAlu), opLatency(OpClass::IntAlu));
    EXPECT_GT(opLatency(OpClass::IntDiv), opLatency(OpClass::IntMul));
    EXPECT_GT(opLatency(OpClass::FpDiv), opLatency(OpClass::FpMul));
}

TEST(OpClass, Predicates)
{
    EXPECT_TRUE(isMemOp(OpClass::Load));
    EXPECT_TRUE(isMemOp(OpClass::Store));
    EXPECT_FALSE(isMemOp(OpClass::IntAlu));
    EXPECT_TRUE(isFpOp(OpClass::FpMul));
    EXPECT_FALSE(isFpOp(OpClass::Load));
}

TEST(DynInstr, MispredictedOnlyForBranches)
{
    DynInstr di;
    di.op = OpClass::Branch;
    di.branchTaken = true;
    di.branchPredictedTaken = false;
    EXPECT_TRUE(di.mispredicted());
    di.branchPredictedTaken = true;
    EXPECT_FALSE(di.mispredicted());
    di.op = OpClass::IntAlu;
    di.branchPredictedTaken = false;
    EXPECT_FALSE(di.mispredicted());
}

TEST(DynInstr, ToStringMentionsClassAndThread)
{
    DynInstr di;
    di.tid = 1;
    di.seq = 42;
    di.op = OpClass::Load;
    di.dst = 5;
    di.addr = 0x1000;
    std::string s = di.toString();
    EXPECT_NE(s.find("t1"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("Load"), std::string::npos);
}

TEST(DynInstr, Predicates)
{
    DynInstr di;
    di.op = OpClass::Store;
    EXPECT_TRUE(di.isStore());
    EXPECT_FALSE(di.isLoad());
    EXPECT_FALSE(di.isBranch());
}

} // namespace
} // namespace p5
