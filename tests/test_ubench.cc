/**
 * @file
 * Tests for the Table-2 micro-benchmarks: construction, instruction
 * mixes, cache-level targeting, and the paper's ST IPC ordering.
 */

#include <gtest/gtest.h>

#include "core/smt_core.hh"
#include "fame/fame.hh"
#include "test_helpers.hh"
#include "ubench/ubench.hh"

namespace p5 {
namespace {

TEST(Ubench, AllFifteenBuild)
{
    EXPECT_EQ(allUbench().size(), 15u);
    for (UbenchId id : allUbench()) {
        SyntheticProgram p = makeUbench(id);
        EXPECT_GT(p.instrsPerExecution(), 0u) << ubenchName(id);
        EXPECT_EQ(p.name(), ubenchName(id));
    }
}

TEST(Ubench, NamesRoundTrip)
{
    for (UbenchId id : allUbench())
        EXPECT_EQ(ubenchFromName(ubenchName(id)), id);
}

TEST(UbenchDeath, UnknownNameIsFatal)
{
    EXPECT_FATAL(ubenchFromName("nope"), "unknown micro-benchmark");
}

TEST(Ubench, PresentedSetIsTheSixOfThePaper)
{
    const auto &six = presentedUbench();
    ASSERT_EQ(six.size(), 6u);
    EXPECT_EQ(six[0], UbenchId::CpuInt);
    EXPECT_EQ(six[5], UbenchId::LdintMem);
}

TEST(Ubench, GroupsMatchTable2)
{
    EXPECT_EQ(ubenchInfo(UbenchId::CpuInt).group, UbenchGroup::Integer);
    EXPECT_EQ(ubenchInfo(UbenchId::CpuFp).group,
              UbenchGroup::FloatingPoint);
    EXPECT_EQ(ubenchInfo(UbenchId::BrMiss).group, UbenchGroup::Branch);
    EXPECT_EQ(ubenchInfo(UbenchId::LdfpL2).group, UbenchGroup::Memory);
}

TEST(Ubench, MixesContainExpectedClasses)
{
    auto mix_of = [](UbenchId id, OpClass oc) {
        return makeUbench(id).opClassMix()[static_cast<int>(oc)];
    };
    EXPECT_GT(mix_of(UbenchId::CpuInt, OpClass::IntMul), 0u);
    EXPECT_EQ(mix_of(UbenchId::CpuIntAdd, OpClass::IntMul), 0u);
    EXPECT_GT(mix_of(UbenchId::CpuFp, OpClass::FpMul), 0u);
    EXPECT_GT(mix_of(UbenchId::BrHit, OpClass::Branch), 20u);
    EXPECT_GT(mix_of(UbenchId::LdintL2, OpClass::Load), 0u);
    EXPECT_GT(mix_of(UbenchId::LdintL2, OpClass::Store), 0u);
    EXPECT_GT(mix_of(UbenchId::LdfpMem, OpClass::FpAlu), 0u);
}

TEST(Ubench, ScaleMultipliesWork)
{
    SyntheticProgram base = makeUbench(UbenchId::CpuInt, 1.0);
    SyntheticProgram big = makeUbench(UbenchId::CpuInt, 2.0);
    EXPECT_NEAR(static_cast<double>(big.instrsPerExecution()),
                2.0 * static_cast<double>(base.instrsPerExecution()),
                static_cast<double>(base.phaseGeometry()[0].bodySize));
}

/** Run one benchmark ST and return (ipc, dominant service level). */
struct StProfile
{
    double ipc;
    std::uint64_t l1, l2, l3, mem;
};

StProfile
profile(UbenchId id, Cycle cycles)
{
    SyntheticProgram prog = makeUbench(id);
    CoreParams params;
    SmtCore core(params);
    core.attachThread(0, &prog);
    core.run(cycles);
    StProfile p;
    p.ipc = core.ipcOf(0);
    p.l1 = static_cast<std::uint64_t>(core.stats().value("lsu.loads.l1"));
    p.l2 = static_cast<std::uint64_t>(core.stats().value("lsu.loads.l2"));
    p.l3 = static_cast<std::uint64_t>(core.stats().value("lsu.loads.l3"));
    p.mem =
        static_cast<std::uint64_t>(core.stats().value("lsu.loads.mem"));
    return p;
}

TEST(Ubench, LdintL1HitsL1)
{
    StProfile p = profile(UbenchId::LdintL1, 100000);
    EXPECT_GT(p.l1, 9 * (p.l2 + p.l3 + p.mem));
}

TEST(Ubench, LdintL2TargetsL2)
{
    StProfile p = profile(UbenchId::LdintL2, 500000);
    EXPECT_GT(p.l2, p.l3 + p.mem);
    EXPECT_GT(p.l2, 100u);
}

TEST(Ubench, LdintMemTargetsDram)
{
    StProfile p = profile(UbenchId::LdintMem, 300000);
    EXPECT_GT(p.mem, p.l2 + p.l3);
}

TEST(Ubench, LdfpVariantsBehaveLikeLdint)
{
    // Paper Sec. 4.2: the FP load benchmarks do not significantly
    // differ from the integer ones.
    StProfile i = profile(UbenchId::LdintL2, 400000);
    StProfile f = profile(UbenchId::LdfpL2, 400000);
    EXPECT_NEAR(f.ipc, i.ipc, 0.4 * i.ipc);
}

TEST(Ubench, BrHitFastBrMissSlow)
{
    StProfile hit = profile(UbenchId::BrHit, 100000);
    StProfile miss = profile(UbenchId::BrMiss, 100000);
    EXPECT_GT(hit.ipc, 1.5 * miss.ipc);
}

TEST(Ubench, CpuIntFamilyIsSimilar)
{
    // Paper: cpu_int, cpu_int_add and cpu_int_mul behave similarly.
    StProfile a = profile(UbenchId::CpuInt, 50000);
    StProfile b = profile(UbenchId::CpuIntAdd, 50000);
    StProfile c = profile(UbenchId::CpuIntMul, 50000);
    EXPECT_GT(b.ipc, 0.4 * a.ipc);
    EXPECT_LT(b.ipc, 2.5 * a.ipc);
    EXPECT_GT(c.ipc, 0.4 * a.ipc);
    EXPECT_LT(c.ipc, 2.5 * a.ipc);
}

TEST(Ubench, StIpcOrderingMatchesPaperTable3)
{
    // Table 3 ST column ordering:
    //   ldint_l1 > cpu_int > lng_chain > cpu_fp > ldint_l2 >> ldint_mem
    StProfile l1 = profile(UbenchId::LdintL1, 80000);
    StProfile ci = profile(UbenchId::CpuInt, 80000);
    StProfile lc = profile(UbenchId::LngChainCpuint, 80000);
    StProfile fp = profile(UbenchId::CpuFp, 80000);
    StProfile l2 = profile(UbenchId::LdintL2, 600000);
    StProfile mem = profile(UbenchId::LdintMem, 600000);

    EXPECT_GT(l1.ipc, ci.ipc);
    EXPECT_GT(ci.ipc, lc.ipc);
    EXPECT_GT(lc.ipc, l2.ipc);
    EXPECT_GT(fp.ipc, l2.ipc);
    EXPECT_GT(l2.ipc, 4.0 * mem.ipc);
}

TEST(Ubench, StIpcMagnitudesInPaperBands)
{
    // Rough absolute bands around the paper's Table 3 values.
    EXPECT_NEAR(profile(UbenchId::CpuInt, 80000).ipc, 1.14, 0.4);
    EXPECT_NEAR(profile(UbenchId::LngChainCpuint, 80000).ipc, 0.51,
                0.2);
    EXPECT_NEAR(profile(UbenchId::CpuFp, 80000).ipc, 0.41, 0.2);
    EXPECT_NEAR(profile(UbenchId::LdintL1, 80000).ipc, 2.29, 0.8);
    const double mem_ipc = profile(UbenchId::LdintMem, 600000).ipc;
    EXPECT_GT(mem_ipc, 0.005);
    EXPECT_LT(mem_ipc, 0.08);
}

} // namespace
} // namespace p5
