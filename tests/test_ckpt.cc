/**
 * @file
 * Tests of the checkpoint/fork execution subsystem: warm-key identity
 * (priorities and measurement knobs excluded), bit-identical
 * restored-vs-cold measurements across the full priority-pair matrix,
 * the on-disk checkpoint format's corruption/truncation/foreign-key
 * quarantine discipline, version pinning (a foreign config schema is
 * refused, a superseded format re-warms), CkptManager warm/fork
 * accounting, invariant-checker re-arming on a restored core, and the
 * pinned wire format, whose images round-trip byte for byte.
 */

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.hh"
#include "ckpt/ckpt.hh"
#include "ckpt/ckpt_io.hh"
#include "ckpt/ckpt_manager.hh"
#include "config/config.hh"
#include "core/smt_core.hh"
#include "exp/experiments.hh"
#include "fame/fame.hh"
#include "fame/sim_job.hh"
#include "test_helpers.hh"
#include "ubench/ubench.hh"

namespace p5 {
namespace {

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

SimJob
fastPair(UbenchId p, UbenchId s, int prio_p, int prio_s)
{
    return SimJob::famePair(ProgramSpec::ubench(p, 0.5),
                            ProgramSpec::ubench(s, 0.5), prio_p, prio_s,
                            CoreParams{}, fastFame());
}

void
expectIdentical(const FameResult &a, const FameResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.hitCycleLimit, b.hitCycleLimit);
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(num_hw_threads); ++t) {
        SCOPED_TRACE(t);
        EXPECT_EQ(a.thread[t].present, b.thread[t].present);
        EXPECT_EQ(a.thread[t].executions, b.thread[t].executions);
        EXPECT_EQ(a.thread[t].accountedCycles,
                  b.thread[t].accountedCycles);
        EXPECT_EQ(a.thread[t].accountedInstrs,
                  b.thread[t].accountedInstrs);
    }
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "p5sim_ckpt_" + name;
}

/** Per-test checkpoint directory, cleared of any previous run's files. */
std::string
freshCkptDir(const std::string &name)
{
    const std::string dir = tempPath(name);
    DIR *top = ::opendir(dir.c_str());
    if (top) {
        while (const dirent *entry = ::readdir(top)) {
            const std::string sub = entry->d_name;
            if (sub == "." || sub == "..")
                continue;
            const std::string subpath = dir + "/" + sub;
            DIR *shard = ::opendir(subpath.c_str());
            if (shard) {
                while (const dirent *file = ::readdir(shard)) {
                    const std::string fname = file->d_name;
                    if (fname != "." && fname != "..")
                        std::remove((subpath + "/" + fname).c_str());
                }
                ::closedir(shard);
                ::rmdir(subpath.c_str());
            } else {
                std::remove(subpath.c_str());
            }
        }
        ::closedir(top);
        ::rmdir(dir.c_str());
    }
    return dir;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

// --- warm-key identity -------------------------------------------------

TEST(WarmKey, ExcludesPrioritiesAndMeasurementKnobs)
{
    const SimJob base = fastPair(UbenchId::CpuInt, UbenchId::LdintMem,
                                 4, 4);

    // All 36 priority pairs of one pair-mix collapse onto one key —
    // the property the whole subsystem rests on.
    for (int p = 1; p <= 6; ++p)
        for (int s = 1; s <= 6; ++s)
            EXPECT_EQ(fastPair(UbenchId::CpuInt, UbenchId::LdintMem, p,
                               s)
                          .warmKey(),
                      base.warmKey());

    // Measurement-only FAME knobs don't reach the warm phase.
    {
        SimJob j = base;
        j.fame.minRepetitions = 50;
        j.fame.maiv = 0.001;
        EXPECT_EQ(j.warmKey(), base.warmKey());
        EXPECT_NE(j.key(), base.key());
    }

    // Everything the warm trajectory depends on does change the key.
    {
        SimJob j = base;
        j.fame.warmupRepetitions = 2;
        EXPECT_NE(j.warmKey(), base.warmKey());
    }
    {
        SimJob j = base;
        j.core.lmqEntries = 16;
        EXPECT_NE(j.warmKey(), base.warmKey());
    }
    EXPECT_NE(fastPair(UbenchId::CpuFp, UbenchId::LdintMem, 4, 4)
                  .warmKey(),
              base.warmKey());
    EXPECT_NE(SimJob::fameSingle(ProgramSpec::ubench(UbenchId::CpuInt,
                                                     0.5),
                                 CoreParams{}, fastFame(), 4)
                  .warmKey(),
              base.warmKey());
}

TEST(WarmKey, NonFameJobsAreFatal)
{
    PipelineParams pp;
    const SimJob job = SimJob::pipelineSmt(pp, CoreParams{});
    EXPECT_FATAL(job.warmKey(), "non-FAME");
}

TEST(WarmKey, ConfigWarmFingerprintExcludesMeasurementKnobs)
{
    ExpConfig a;
    ConfigTree ta(a);
    ta.validate();
    ta.stampTag();

    // Measurement-only paths: the full fingerprint moves, the warm
    // fingerprint (and so every warm key stamped from it) does not.
    for (const char *assignment :
         {"fame.min_repetitions=37", "fame.maiv=0.002",
          "exp.seed=123"}) {
        SCOPED_TRACE(assignment);
        ExpConfig b;
        ConfigTree tb(b);
        tb.applyOverride(assignment);
        tb.validate();
        tb.stampTag();
        EXPECT_NE(b.configTag, a.configTag);
        EXPECT_EQ(b.warmTag, a.warmTag);
    }

    // A core-geometry path moves both.
    {
        ExpConfig b;
        ConfigTree tb(b);
        tb.applyOverride("core.lmq_entries=16");
        tb.validate();
        tb.stampTag();
        EXPECT_NE(b.configTag, a.configTag);
        EXPECT_NE(b.warmTag, a.warmTag);
    }
}

// --- restored-vs-cold equivalence --------------------------------------

/**
 * The acceptance sweep: every presented benchmark paired against a
 * fixed partner, all 36 priority pairs, each measured twice — once
 * cold (inline warm-up) and once through a shared CkptManager (one
 * warm-up per pair-mix, 35 forks). Every measurement must be
 * bit-identical; the manager must account one warm per mix.
 */
TEST(CkptEquivalence, RestoredRunsMatchColdAcrossThePairMatrix)
{
    CkptManager mgr;
    std::uint64_t mixes = 0;
    for (const UbenchId bench : presentedUbench()) {
        SCOPED_TRACE(ubenchName(bench));
        ++mixes;
        for (int p = 1; p <= 6; ++p) {
            for (int s = 1; s <= 6; ++s) {
                SCOPED_TRACE(p * 10 + s);
                const SimJob job =
                    fastPair(bench, UbenchId::LdintMem, p, s);
                const SimResult cold = job.execute(nullptr);
                const SimResult forked = job.execute(&mgr);
                expectIdentical(cold.fame, forked.fame);
            }
        }
        // One warm-up per pair-mix, however many pairs share it.
        EXPECT_EQ(mgr.warms(), mixes);
        EXPECT_EQ(mgr.memForks(), mixes * 35);
    }
}

TEST(CkptEquivalence, SingleThreadJobsForkToo)
{
    CkptManager mgr;
    for (int prio : {2, 4, 6}) {
        const SimJob job = SimJob::fameSingle(
            ProgramSpec::ubench(UbenchId::LdintL2, 0.5), CoreParams{},
            fastFame(), prio);
        expectIdentical(job.execute(nullptr).fame,
                        job.execute(&mgr).fame);
    }
    EXPECT_EQ(mgr.warms(), 1u);
    EXPECT_EQ(mgr.memForks(), 2u);
}

// --- persistent store --------------------------------------------------

TEST(CkptStoreTest, RoundTripAcrossManagers)
{
    const std::string dir = freshCkptDir("roundtrip");
    const SimJob job =
        fastPair(UbenchId::CpuInt, UbenchId::LdintL2, 4, 4);
    const SimResult cold = job.execute(nullptr);

    {
        CkptStore store(dir);
        CkptManager mgr;
        mgr.setStore(&store);
        expectIdentical(cold.fame, job.execute(&mgr).fame);
        EXPECT_EQ(mgr.warms(), 1u);
        EXPECT_EQ(store.writes(), 1u);
        EXPECT_TRUE(fileExists(
            store.pathFor(ckptFingerprintHex(job.warmKey()))));
    }

    // A second process (fresh manager, fresh store handle) forks from
    // disk instead of warming, with bit-identical stats.
    {
        CkptStore store(dir);
        CkptManager mgr;
        mgr.setStore(&store);
        expectIdentical(cold.fame, job.execute(&mgr).fame);
        EXPECT_EQ(mgr.warms(), 0u);
        EXPECT_EQ(mgr.storeForks(), 1u);
        EXPECT_EQ(store.hits(), 1u);
    }
}

/** Write one checkpoint for @p job, then return its on-disk path. */
std::string
publishOne(const std::string &dir, const SimJob &job)
{
    CkptStore store(dir);
    CkptManager mgr;
    mgr.setStore(&store);
    job.execute(&mgr);
    return store.pathFor(ckptFingerprintHex(job.warmKey()));
}

TEST(CkptStoreTest, TruncatedCheckpointIsQuarantinedAndRewarmed)
{
    const std::string dir = freshCkptDir("truncated");
    const SimJob job =
        fastPair(UbenchId::CpuInt, UbenchId::BrHit, 4, 4);
    const std::string path = publishOne(dir, job);
    const SimResult cold = job.execute(nullptr);

    // Truncate the payload (keep the header line intact).
    {
        std::ifstream is(path, std::ios::binary);
        std::string header;
        std::getline(is, header);
        is.close();
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << header << '\n' << "short";
    }

    CkptStore store(dir);
    Checkpoint out;
    EXPECT_FALSE(store.load(job.warmKey(), out));
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_FALSE(fileExists(path));
    EXPECT_TRUE(fileExists(path + ".bad"));

    // End to end: the quarantined file is a miss, not an error — the
    // manager warms inline, republishes, and stats stay identical.
    CkptManager mgr;
    mgr.setStore(&store);
    expectIdentical(cold.fame, job.execute(&mgr).fame);
    EXPECT_EQ(mgr.warms(), 1u);
    EXPECT_TRUE(fileExists(path));
}

TEST(CkptStoreTest, CorruptPayloadFailsTheChecksumAndIsQuarantined)
{
    const std::string dir = freshCkptDir("corrupt");
    const SimJob job =
        fastPair(UbenchId::LdintL1, UbenchId::LdintMem, 4, 4);
    const std::string path = publishOne(dir, job);

    // Flip one payload byte; the size still matches, so only the
    // checksum can catch it.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        std::string header;
        std::getline(f, header);
        f.seekp(static_cast<std::streamoff>(header.size()) + 10);
        f.put(static_cast<char>(0xa5));
    }

    CkptStore store(dir);
    Checkpoint out;
    EXPECT_FALSE(store.load(job.warmKey(), out));
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_TRUE(fileExists(path + ".bad"));
}

TEST(CkptStoreTest, ForeignWarmKeyIsQuarantined)
{
    const std::string dir = freshCkptDir("foreign_key");
    const SimJob a = fastPair(UbenchId::CpuInt, UbenchId::CpuFp, 4, 4);
    const SimJob b =
        fastPair(UbenchId::LdintL2, UbenchId::LdintL3, 4, 4);
    const std::string path_a = publishOne(dir, a);

    // Plant a's (internally valid) checkpoint at b's address: the
    // embedded warm key betrays it.
    CkptStore store(dir);
    const std::string path_b =
        store.pathFor(ckptFingerprintHex(b.warmKey()));
    ::mkdir(path_b.substr(0, path_b.rfind('/')).c_str(), 0777);
    {
        std::ifstream is(path_a, std::ios::binary);
        std::ofstream os(path_b, std::ios::binary);
        ASSERT_TRUE(os.good());
        os << is.rdbuf();
    }

    Checkpoint out;
    EXPECT_FALSE(store.load(b.warmKey(), out));
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_TRUE(fileExists(path_b + ".bad"));
    // a's own copy is untouched and still loads.
    EXPECT_TRUE(store.load(a.warmKey(), out));
}

/**
 * A checkpoint area is a cache: one pinned at another format, holding
 * that format's files, opens, is re-pinned to this binary's format,
 * misses on the old file and re-warms with identical stats. The old
 * file stays for store-gc. Checked for the first format and for the one
 * this binary's format superseded.
 */
TEST(CkptStoreTest, SupersededFormatAreaIsRepinnedAndRewarmed)
{
    for (const int old_version : {1, ckpt_format_version - 1}) {
        SCOPED_TRACE("pinned at v" + std::to_string(old_version));
        const std::string dir = freshCkptDir(
            "superseded_format_v" + std::to_string(old_version));
        const SimJob job =
            fastPair(UbenchId::CpuInt, UbenchId::LdintL1, 4, 4);
        const std::string fp = ckptFingerprintHex(job.warmKey());
        const std::string live = publishOne(dir, job);
        const std::string old_path = live.substr(0, live.rfind('/') + 1) +
                                     fp + "-ckpt-v" +
                                     std::to_string(old_version) + ".bin";
        ASSERT_EQ(std::rename(live.c_str(), old_path.c_str()), 0);
        {
            std::ofstream os(dir + "/ckpt_meta.json", std::ios::trunc);
            os << "{\n  \"ckptVersion\": " << old_version
               << ",\n  \"schemaVersion\": " << config_schema_version
               << "\n}\n";
        }

        CkptStore store(dir);
        {
            std::ifstream is(dir + "/ckpt_meta.json");
            std::string meta((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
            EXPECT_NE(meta.find("\"ckptVersion\": " +
                                std::to_string(ckpt_format_version)),
                      std::string::npos)
                << meta;
        }
        Checkpoint out;
        EXPECT_FALSE(store.load(job.warmKey(), out));
        EXPECT_EQ(store.quarantined(), 0u);

        CkptManager mgr;
        mgr.setStore(&store);
        expectIdentical(job.execute(nullptr).fame,
                        job.execute(&mgr).fame);
        EXPECT_EQ(mgr.warms(), 1u);
        EXPECT_EQ(store.writes(), 1u);
        EXPECT_TRUE(fileExists(live));
        EXPECT_TRUE(fileExists(old_path));
    }
}

TEST(CkptStoreDeath, ForeignConfigSchemaIsRefused)
{
    const std::string dir = freshCkptDir("foreign_schema");
    { CkptStore store(dir); }
    {
        std::ofstream os(dir + "/ckpt_meta.json", std::ios::trunc);
        os << "{\n  \"ckptVersion\": " << ckpt_format_version
           << ",\n  \"schemaVersion\": 99\n}\n";
    }
    EXPECT_FATAL(CkptStore store(dir), "schema");
}

TEST(CkptManagerDeath, CheckpointCreatedUnderTheWrongKeyIsFatal)
{
    CkptManager mgr;
    EXPECT_FATAL(mgr.acquire("warm|key-a",
                             []() -> Checkpoint {
                                 Checkpoint ck;
                                 ck.warmKey = "warm|key-b";
                                 return ck;
                             }),
                 "claimed as");
}

/**
 * A claimant whose warm-up throws hands its error to every sibling
 * blocked on the key and frees the key: a later claim warms afresh
 * instead of inheriting a broken promise.
 */
TEST(CkptManager, ConcurrentWarmFailureReachesSiblingsAndReleasesTheKey)
{
    CkptManager mgr;
    const std::string key = "warm|fails-once";
    std::atomic<bool> warming{false};
    std::atomic<int> waiting{0};
    std::thread claimant([&] {
        EXPECT_FATAL(mgr.acquire(key,
                                 [&]() -> Checkpoint {
                                     warming = true;
                                     while (waiting.load() < 2)
                                         std::this_thread::yield();
                                     // Let both siblings reach the key.
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(100));
                                     throw Error("boom");
                                 }),
                     "^boom$");
    });
    std::vector<std::string> errors(2);
    std::vector<std::thread> siblings;
    for (std::string &error : errors)
        siblings.emplace_back([&] {
            while (!warming.load())
                std::this_thread::yield();
            ++waiting;
            try {
                mgr.acquire(key, []() -> Checkpoint {
                    ADD_FAILURE() << "a sibling claimed the key";
                    return {};
                });
            } catch (const std::exception &e) {
                error = e.what();
            }
        });
    claimant.join();
    for (std::thread &t : siblings)
        t.join();
    for (const std::string &error : errors)
        EXPECT_EQ(error, "boom");
    EXPECT_EQ(mgr.memForks(), 0u);

    const CkptManager::Acquired again = mgr.acquire(key, [&] {
        Checkpoint ck;
        ck.warmKey = key;
        return ck;
    });
    EXPECT_TRUE(again.created);
    EXPECT_EQ(mgr.warms(), 1u);
}

// --- checker re-arm ----------------------------------------------------

/**
 * A restored core must satisfy the p5check invariant checkers exactly
 * like a warmed one: checkers baseline on their first observation, so
 * attaching them to a forked core and measuring must record zero
 * violations while actually checking cycles.
 */
TEST(CkptCheckers, ReArmCleanlyOnARestoredCore)
{
    const FameParams fame = fastFame();
    const SyntheticProgram pp = makeUbench(UbenchId::CpuInt, 0.5);
    const SyntheticProgram ps = makeUbench(UbenchId::LdintMem, 0.5);

    // Warm a creator core and snapshot it.
    Checkpoint ck;
    {
        CoreParams params;
        SmtCore core(params);
        core.attachThread(0, &pp, canonical_warm_priority);
        core.attachThread(1, &ps, canonical_warm_priority);
        FameRunner runner(fame);
        runner.runWarmup(core);
        ck.warmCycles = core.cycle();
        CkptWriter w;
        core.saveState(w);
        ck.state = w.data();
    }

    // Fork it into a fresh core that carries the full checker suite
    // (collect mode, so a violation fails the test instead of
    // aborting) and run the measurement phase under their watch.
    CoreParams params;
    SmtCore core(params);
    core.attachThread(0, &pp, canonical_warm_priority);
    core.attachThread(1, &ps, canonical_warm_priority);
    check::installStandardCheckers(core);
    core.checks().setFatal(false);
    {
        CkptReader r(ck.state);
        core.restoreState(r);
        r.expectEnd();
    }
    core.setPriorityPair(6, 2);
    FameRunner runner(fame);
    const FameResult result = runner.measure(core, 0);

    EXPECT_TRUE(result.thread[0].executions > 0);
    EXPECT_EQ(core.checks().failureCount(), 0u)
        << (core.checks().failures().empty()
                ? ""
                : core.checks().failures().front().describe());
    EXPECT_GT(core.checks().cyclesChecked() +
                  core.checks().cyclesSkipped(),
              0u);
}

/**
 * Every live producer's wake list in @p core, as (thread, producer seq,
 * consumer seq, source) tuples in list order.
 */
std::vector<std::tuple<ThreadId, SeqNum, SeqNum, std::uint32_t>>
wakeLists(SmtCore &core)
{
    std::vector<std::tuple<ThreadId, SeqNum, SeqNum, std::uint32_t>> out;
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        ThreadState &ts = core.thread(t);
        for (const InFlight &e : ts.window)
            for (std::uint32_t edge = e.wakeHead; edge != no_wake_edge;
                 edge = ts.nextWake(edge))
                out.emplace_back(t, e.di.seq,
                                 ts.wakeConsumer(edge).di.seq, edge & 1);
    }
    return out;
}

/**
 * The image carries no wake list and no rename map: restore re-derives
 * both from the window. On a squash-heavy pair, where the saver's lists
 * were trimmed many times, the rebuilt lists must equal the saver's
 * edge for edge (dispatch links no nop consumer, so there is nothing
 * wake would skip), the restored core must save the same image, and
 * both cores must run on identically.
 */
TEST(Ckpt, WakeListsRebuiltOnRestoreMatchTheLiveCore)
{
    const SyntheticProgram pp = makeUbench(UbenchId::BrMiss);
    const SyntheticProgram ps = makeUbench(UbenchId::LdintL2);
    CoreParams params;
    SmtCore core(params);
    core.attachThread(0, &pp, 4);
    core.attachThread(1, &ps, 4);
    core.run(30000);
    for (Cycle guard = 0; guard < 1000 && wakeLists(core).size() < 4;
         ++guard)
        core.tick();
    ASSERT_GE(wakeLists(core).size(), 4u);
    EXPECT_GT(core.stats().value("thread0.squashed"), 1000.0);

    CkptWriter w;
    core.saveState(w);
    SmtCore twin(params);
    twin.attachThread(0, &pp, 4);
    twin.attachThread(1, &ps, 4);
    CkptReader r(w.data());
    twin.restoreState(r);
    r.expectEnd();
    EXPECT_EQ(wakeLists(core), wakeLists(twin));
    CkptWriter again;
    twin.saveState(again);
    EXPECT_TRUE(again.data() == w.data());

    core.run(50000);
    twin.run(50000);
    for (const std::string &name : core.stats().names())
        EXPECT_EQ(core.stats().value(name), twin.stats().value(name))
            << name;
}

// --- wire format ------------------------------------------------------

/** A pair's saved image: its size and CkptWriter checksum. */
struct PinnedImage
{
    std::size_t bytes;
    std::uint64_t checksum;
};

/** @p core's image as saved now. */
PinnedImage
imageOf(const SmtCore &core, std::vector<std::uint8_t> *bytes = nullptr)
{
    CkptWriter w;
    core.saveState(w);
    if (bytes)
        *bytes = w.data();
    return {w.size(), w.checksum()};
}

/**
 * The checkpoint wire format, pinned byte for byte. Each ubench pair
 * runs 300k cycles at (4,4) from a fresh core and is saved; the image
 * is then restored into another fresh core, which runs 100k cycles
 * more and is saved again. A moved size means a changed format; a
 * moved checksum alone means a changed format or a changed simulation.
 * Either must be deliberate: bump ckpt_format_version for a format
 * change, and re-record the images here. The stream holds primary
 * state only, so the restored core, saved before it runs on, must
 * reproduce the image byte for byte.
 */
TEST(Ckpt, WireFormatMatchesTheRecordedImages)
{
    struct Case
    {
        UbenchId primary;
        UbenchId secondary;
        PinnedImage saved;
        PinnedImage resumed;
    };
    const Case cases[] = {
        {UbenchId::LdintMem, UbenchId::CpuInt,
         {1222275, 0xeaeb68e319b0f4c1ULL}, {1221846, 0xd9e1822de454693fULL}},
        {UbenchId::LdintL2, UbenchId::LdintMem,
         {1220938, 0xa722b68822eaa5a1ULL}, {1221027, 0xa098ba4275d677dbULL}},
        {UbenchId::CpuInt, UbenchId::LdintL1,
         {1224533, 0xb720401662cb1c54ULL}, {1224437, 0x6c734d4fb84ce9caULL}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(ubenchName(c.primary)) + "+" +
                     ubenchName(c.secondary));
        const SyntheticProgram pp = makeUbench(c.primary);
        const SyntheticProgram ps = makeUbench(c.secondary);
        CoreParams params;
        SmtCore core(params);
        core.attachThread(0, &pp, 4);
        core.attachThread(1, &ps, 4);
        core.run(300000);
        std::vector<std::uint8_t> bytes;
        const PinnedImage saved = imageOf(core, &bytes);
        EXPECT_EQ(saved.bytes, c.saved.bytes);
        EXPECT_EQ(saved.checksum, c.saved.checksum)
            << std::hex << "0x" << saved.checksum;

        SmtCore resumed(params);
        resumed.attachThread(0, &pp, 4);
        resumed.attachThread(1, &ps, 4);
        CkptReader r(bytes);
        resumed.restoreState(r);
        r.expectEnd();
        std::vector<std::uint8_t> again;
        imageOf(resumed, &again);
        EXPECT_TRUE(again == bytes);
        resumed.run(100000);
        const PinnedImage later = imageOf(resumed);
        EXPECT_EQ(later.bytes, c.resumed.bytes);
        EXPECT_EQ(later.checksum, c.resumed.checksum)
            << std::hex << "0x" << later.checksum;
    }
}

// --- restore-side checks ----------------------------------------------

/** The image of a default core running ldint_l2 + cpu_int for 20k cycles. */
std::vector<std::uint8_t>
smallImage()
{
    const SyntheticProgram pp = makeUbench(UbenchId::LdintL2);
    const SyntheticProgram ps = makeUbench(UbenchId::CpuInt);
    SmtCore core(CoreParams{});
    core.attachThread(0, &pp, 4);
    core.attachThread(1, &ps, 4);
    core.run(20000);
    std::vector<std::uint8_t> bytes;
    imageOf(core, &bytes);
    return bytes;
}

/**
 * Restore @p image into a fresh core built with @p params, with the
 * saver's programs attached (thread 1's only if @p both), and check
 * that the whole stream was consumed.
 */
void
restoreInto(const std::vector<std::uint8_t> &image, const CoreParams &params,
            bool both = true)
{
    const SyntheticProgram pp = makeUbench(UbenchId::LdintL2);
    const SyntheticProgram ps = makeUbench(UbenchId::CpuInt);
    SmtCore core(params);
    core.attachThread(0, &pp, 4);
    if (both)
        core.attachThread(1, &ps, 4);
    CkptReader r(image);
    core.restoreState(r);
    r.expectEnd();
}

// A core whose geometry differs from the saver's refuses the image at
// the first field that records it: the window capacity, a functional
// unit class's unit count, or the BHT size.
TEST(CkptDeath, RestoreIntoADifferentGeometryIsFatal)
{
    const std::vector<std::uint8_t> image = smallImage();
    restoreInto(image, CoreParams{});

    CoreParams bht;
    bht.bht.entries /= 2;
    EXPECT_FATAL(restoreInto(image, bht),
                 "checkpoint geometry mismatch: BHT counters is 16384 in "
                 "the stream but 8192 in the restoring core");

    CoreParams fu;
    ++fu.fuCount[0];
    EXPECT_FATAL(restoreInto(image, fu),
                 "checkpoint geometry mismatch: FU units is 2 in the stream "
                 "but 3 in the restoring core");

    CoreParams window;
    window.gctGroups /= 2;
    EXPECT_FATAL(restoreInto(image, window),
                 "checkpoint geometry mismatch: window capacity is");
}

TEST(CkptDeath, ThreadAttachmentMismatchIsFatal)
{
    const std::vector<std::uint8_t> image = smallImage();
    EXPECT_FATAL(restoreInto(image, CoreParams{}, false),
                 "checkpoint thread-attachment mismatch on thread 1");
}

TEST(CkptDeath, TruncatedStreamUnderruns)
{
    std::vector<std::uint8_t> image = smallImage();
    image.resize(image.size() / 2);
    EXPECT_FATAL(restoreInto(image, CoreParams{}), "checkpoint blob underrun");
}

TEST(CkptDeath, TrailingBytesAreFatal)
{
    std::vector<std::uint8_t> image = smallImage();
    image.push_back(0);
    EXPECT_FATAL(restoreInto(image, CoreParams{}),
                 "checkpoint blob has 1 trailing bytes");
}

} // namespace
} // namespace p5
