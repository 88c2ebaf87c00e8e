/**
 * @file
 * Stats-digest regression: the full scalar StatGroup of a FAME run,
 * hashed and pinned to digests recorded by an earlier build.
 *
 * The fast-forward and checkpoint equivalence suites compare two paths
 * of the same build, so a change that shifts both paths the same way
 * passes them. These digests pin the simulated numbers themselves: any
 * change to a counter, a derived stat or the FAME result of the runs
 * below changes a digest. A deliberate model change re-records them
 * (the failure message prints the new value) and says so in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "config/config.hh"
#include "exp/experiments.hh"
#include "fame/fame.hh"
#include "fame/sim_job.hh"
#include "ubench/ubench.hh"

namespace p5 {
namespace {

/** FNV-1a over bytes, 64-bit. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void
    u64(std::uint64_t v)
    {
        bytes(&v, sizeof v);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

struct DigestCase
{
    const char *primary;
    const char *secondary;
    int prioP;
    int prioS;
    std::vector<std::string> overrides;
    /** Test-name suffix of a case run with overrides ("" for none). */
    const char *label;
    std::uint64_t digest;
};

/**
 * `p5sim run`'s protocol on a default (full-mode) configuration: warm
 * both threads at the canonical priority, switch to the measured pair,
 * measure. Returns the digest of every scalar stat (name and exact
 * value bits) plus the FAME result, and hands the core back for the
 * non-vacuity checks.
 */
std::uint64_t
runDigest(const DigestCase &c, std::unique_ptr<SmtCore> *out)
{
    ExpConfig cfg;
    ConfigTree tree(cfg);
    for (const std::string &o : c.overrides)
        tree.applyOverride(o);
    tree.validate();

    const auto prog_p =
        ProgramSpec::ubench(ubenchFromName(c.primary), cfg.ubenchScale)
            .build();
    const auto prog_s =
        ProgramSpec::ubench(ubenchFromName(c.secondary), cfg.ubenchScale)
            .build();
    auto core = std::make_unique<SmtCore>(cfg.core);
    core->attachThread(0, prog_p.get(), canonical_warm_priority);
    core->attachThread(1, prog_s.get(), canonical_warm_priority);
    FameRunner runner(cfg.fame);
    runner.runWarmup(*core);
    core->setPriorityPair(c.prioP, c.prioS);
    const FameResult r = runner.measure(*core, 0);

    Fnv1a h;
    for (const std::string &name : core->stats().names()) {
        h.str(name);
        h.u64(std::bit_cast<std::uint64_t>(core->stats().value(name)));
    }
    h.u64(r.totalCycles);
    h.u64(r.converged);
    h.u64(r.hitCycleLimit);
    for (const ThreadMeasurement &t : r.thread) {
        h.u64(t.present);
        h.u64(t.executions);
        h.u64(t.accountedCycles);
        h.u64(t.accountedInstrs);
    }
    *out = std::move(core);
    return h.h;
}

void
PrintTo(const DigestCase &c, std::ostream *os)
{
    *os << c.primary << "+" << c.secondary << " at (" << c.prioP << ","
        << c.prioS << ")";
    for (const std::string &o : c.overrides)
        *os << " --set " << o;
}

/** Every balancer trigger fires, and misses queue for entries. */
const DigestCase stress_case{"ldint_mem",
                             "ldint_l2",
                             5,
                             3,
                             {"core.balancer.lmq_threshold=2",
                              "core.lmq_entries=3",
                              "core.balancer.action=flush"},
                             "stress",
                             0x665c946d97829858ull};

/**
 * Forfeited slots go to the sibling: the arbiter's reassignment branch,
 * which the fast-forward suite only compares against itself.
 */
const DigestCase work_conserving_case{"ldint_mem",
                                      "cpu_int",
                                      6,
                                      2,
                                      {"core.work_conserving_slots=true"},
                                      "work_conserving",
                                      0x4ac9267effa5008bull};

class StatsDigestTest : public ::testing::TestWithParam<DigestCase>
{
};

TEST_P(StatsDigestTest, MatchesTheRecordedDigest)
{
    const DigestCase &c = GetParam();
    std::unique_ptr<SmtCore> core;
    const std::uint64_t digest = runDigest(c, &core);
    EXPECT_EQ(digest, c.digest)
        << "recorded 0x" << std::hex << c.digest << ", got 0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, StatsDigestTest,
    ::testing::Values(
        stress_case, work_conserving_case,
        DigestCase{"cpu_int", "ldint_l1", 2, 6, {}, "", 0xd9310246dd5a03a3ull},
        // Mostly fast-forwarded.
        DigestCase{
            "ldint_mem", "ldint_mem", 6, 2, {}, "", 0xcdbd06f6b0cb8260ull}),
    [](const ::testing::TestParamInfo<DigestCase> &info) {
        return std::string(info.param.primary) + "_" +
               info.param.secondary + "_" +
               std::to_string(info.param.prioP) +
               std::to_string(info.param.prioS) +
               (*info.param.label ? std::string("_") + info.param.label
                                  : std::string());
    });

/** The stress case exercises what it claims to. */
TEST(StatsDigest, StressCaseFiresEveryTrigger)
{
    std::unique_ptr<SmtCore> core;
    runDigest(stress_case, &core);
    const StatGroup &s = core->stats();
    const auto sum = [&s](const std::string &stat) {
        return s.value("balancer.thread0." + stat) +
               s.value("balancer.thread1." + stat);
    };
    EXPECT_GT(sum("gctBlocks"), 0.0);
    EXPECT_GT(sum("lmqBlocks"), 0.0);
    EXPECT_GT(sum("tlbBlocks"), 0.0);
    EXPECT_GT(sum("flushes"), 0.0);
    EXPECT_GT(s.value("lmq.queuedMisses"), 0.0);
}

/** The work-conserving case hands slots to the sibling. */
TEST(StatsDigest, WorkConservingCaseReassignsSlots)
{
    std::unique_ptr<SmtCore> core;
    runDigest(work_conserving_case, &core);
    EXPECT_GT(core->arbiter().slotsReassignedTo(1), 0u);
}

} // namespace
} // namespace p5
