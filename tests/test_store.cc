/**
 * @file
 * Tests of the persistent content-addressed result store: fingerprint
 * stability, JSON round-trips, the sharded on-disk layout, atomic
 * publication, corruption quarantine, schema-version refusal, and the
 * SimRunner read-/write-through wiring (including concurrent sharded
 * writers over one shared directory).
 */

#include <sys/stat.h>

#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiments.hh"
#include "fame/sim_runner.hh"
#include "store/result_io.hh"
#include "store/result_store.hh"

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

/**
 * Fresh per-test store directory under the gtest temp root. TempDir()
 * survives across runs, so any store left by a previous (possibly
 * failed) run is removed first.
 */
std::string
storeDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "p5sim_store_" + name;
    DIR *top = ::opendir(dir.c_str());
    if (top) {
        while (const dirent *shard = ::readdir(top)) {
            const std::string sub = shard->d_name;
            if (sub == "." || sub == "..")
                continue;
            const std::string sub_path = dir + "/" + sub;
            DIR *inner = ::opendir(sub_path.c_str());
            if (inner) {
                while (const dirent *entry = ::readdir(inner)) {
                    const std::string file = entry->d_name;
                    if (file != "." && file != "..")
                        std::remove((sub_path + "/" + file).c_str());
                }
                ::closedir(inner);
                ::rmdir(sub_path.c_str());
            } else {
                std::remove(sub_path.c_str());
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

// --- addressing --------------------------------------------------------

TEST(ResultStore, FingerprintIsStableAndDiscriminating)
{
    const SimJob a = fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 6, 2);
    const SimJob b = fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 6, 2);
    EXPECT_EQ(ResultStore::fingerprintHex(a),
              ResultStore::fingerprintHex(b));

    const SimJob prio =
        fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 6, 3);
    EXPECT_NE(ResultStore::fingerprintHex(a),
              ResultStore::fingerprintHex(prio));

    const std::string fp = ResultStore::fingerprintHex(a);
    ASSERT_EQ(fp.size(), 16u);
    for (char c : fp)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << fp;

    // The store address and the RNG stream are distinct functions of
    // the key (distinct hash chains by construction).
    char seed_hex[17];
    std::snprintf(seed_hex, sizeof(seed_hex), "%016llx",
                  static_cast<unsigned long long>(a.rngSeed()));
    EXPECT_NE(fp, std::string(seed_hex));
}

TEST(ResultStore, LayoutShardsByFingerprintPrefixAndSchemaVersion)
{
    ResultStore store(storeDir("layout"), 3);
    const SimJob job =
        fastPair(UbenchId::CpuInt, UbenchId::CpuInt, 4, 4);
    const std::string fp = ResultStore::fingerprintHex(job);
    const std::string path = store.pathFor(fp);
    EXPECT_NE(path.find("/" + fp.substr(0, 2) + "/"),
              std::string::npos);
    EXPECT_NE(path.find(fp + "-v3.json"), std::string::npos);
}

TEST(ResultStore, AllocMixResultsAreNotStorable)
{
    EXPECT_FALSE(storableKind(SimJobKind::AllocMix));
    EXPECT_TRUE(storableKind(SimJobKind::FamePair));
    EXPECT_TRUE(storableKind(SimJobKind::PipelineSingleThread));
    EXPECT_TRUE(storableKind(SimJobKind::PipelineSmt));
}

// --- round trip --------------------------------------------------------

TEST(ResultStore, RoundTripsAFamePairBitIdentically)
{
    ResultStore store(storeDir("roundtrip"));
    const SimJob job =
        fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 5, 4);
    const SimResult executed = job.execute();

    SimResult missed;
    EXPECT_FALSE(store.load(job, missed));
    EXPECT_EQ(store.misses(), 1u);

    StoreProvenance prov;
    prov.seed = 7;
    prov.sweep.emplace_back("core.lmq_entries", "8");
    store.put(job, executed, prov);
    EXPECT_EQ(store.writes(), 1u);
    EXPECT_TRUE(store.contains(job));
    EXPECT_EQ(store.countEntries(), 1u);

    SimResult loaded;
    ASSERT_TRUE(store.load(job, loaded));
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(loaded.kind, SimJobKind::FamePair);
    EXPECT_EQ(loaded.rngSeed, executed.rngSeed);
    expectIdentical(loaded.fame, executed.fame);

    // The stored document carries its provenance verbatim.
    JsonValue doc;
    ASSERT_TRUE(
        store.loadRaw(ResultStore::fingerprintHex(job), doc));
    EXPECT_EQ(doc.find("jobKey")->asString(), job.key());
    EXPECT_EQ(doc.find("seed")->asInt(), 7);
    EXPECT_EQ(doc.find("sweep")->find("core.lmq_entries")->asString(),
              "8");
}

TEST(ResultStore, RoundTripsAFullRangeRngSeed)
{
    // A seed above INT64_MAX must survive the JSON round trip exactly
    // (it travels as a decimal string; a JSON number would demote to
    // double and shear the low bits).
    SimResult result;
    result.kind = SimJobKind::PipelineSmt;
    result.rngSeed = 0xfedcba9876543210ULL;
    result.pipeline.fftCycles = 1.5;
    result.pipeline.luCycles = 2.5;
    result.pipeline.iterationCycles = 4.0;
    result.pipeline.hitCycleLimit = false;

    std::ostringstream os;
    {
        JsonWriter w(os);
        writeSimResult(w, result);
    }
    SimResult back;
    ASSERT_TRUE(readSimResult(parseJson(os.str()), back));
    EXPECT_EQ(back.rngSeed, 0xfedcba9876543210ULL);
    EXPECT_EQ(back.pipeline.fftCycles, 1.5);
    EXPECT_EQ(back.pipeline.iterationCycles, 4.0);
}

// --- corruption and quarantine -----------------------------------------

TEST(ResultStore, TruncatedFileIsQuarantinedAndResimulated)
{
    ResultStore store(storeDir("truncated"));
    const SimJob job =
        fastPair(UbenchId::CpuInt, UbenchId::CpuInt, 4, 4);
    const SimResult executed = job.execute();
    store.put(job, executed, StoreProvenance{});

    // Truncate the published file mid-document (a disk-level fault; a
    // killed writer cannot cause this thanks to the rename publish).
    const std::string path =
        store.pathFor(ResultStore::fingerprintHex(job));
    {
        std::ifstream is(path);
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        std::ofstream os(path, std::ios::trunc);
        os << text.substr(0, text.size() / 2);
    }

    SimResult out;
    EXPECT_FALSE(store.load(job, out));
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_TRUE(fileExists(path + ".bad"));
    EXPECT_FALSE(store.contains(job));

    // The point re-stores and then loads cleanly again.
    store.put(job, executed, StoreProvenance{});
    ASSERT_TRUE(store.load(job, out));
    expectIdentical(out.fame, executed.fame);
}

TEST(ResultStore, NonJsonGarbageIsQuarantined)
{
    ResultStore store(storeDir("garbage"));
    const SimJob job =
        fastPair(UbenchId::BrHit, UbenchId::CpuInt, 4, 4);
    store.put(job, job.execute(), StoreProvenance{});

    const std::string path =
        store.pathFor(ResultStore::fingerprintHex(job));
    // Plain garbage, and a document nested far past any stack.
    const std::size_t deep = 2'000'000;
    const std::string garbage[] = {
        "this is not json at all",
        std::string(deep, '[') + std::string(deep, ']')};
    std::uint64_t quarantined = 0;
    for (const std::string &text : garbage) {
        {
            std::ofstream os(path, std::ios::trunc);
            os << text;
        }
        SimResult out;
        EXPECT_FALSE(store.load(job, out));
        EXPECT_EQ(store.quarantined(), ++quarantined);
        EXPECT_TRUE(fileExists(path + ".bad"));
        EXPECT_FALSE(fileExists(path));
    }
}

TEST(ResultStore, MisplacedFileFailsTheJobKeyCheck)
{
    ResultStore store(storeDir("misplaced"));
    const SimJob a = fastPair(UbenchId::CpuInt, UbenchId::CpuInt, 5, 4);
    const SimJob b = fastPair(UbenchId::CpuInt, UbenchId::CpuInt, 4, 5);
    store.put(a, a.execute(), StoreProvenance{});

    // Plant a's (valid!) document at b's address — the moral
    // equivalent of a fingerprint collision. The embedded job key
    // must catch it.
    const std::string path_a =
        store.pathFor(ResultStore::fingerprintHex(a));
    const std::string path_b =
        store.pathFor(ResultStore::fingerprintHex(b));
    {
        std::ifstream is(path_a);
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        ::mkdir(path_b.substr(0, path_b.rfind('/')).c_str(), 0777);
        std::ofstream os(path_b);
        os << text;
    }
    SimResult out;
    EXPECT_FALSE(store.load(b, out));
    EXPECT_EQ(store.quarantined(), 1u);
}

// --- versioning --------------------------------------------------------

TEST(ResultStoreDeath, RefusesAStoreFromAnotherSchemaVersion)
{
    const std::string dir = storeDir("schema_mismatch");
    { ResultStore store(dir, 1); }
    EXPECT_EXIT(ResultStore(dir, 2), ::testing::ExitedWithCode(1),
                "schema version");
}

TEST(ResultStoreDeath, RefusesAStoreFromAnotherFormatVersion)
{
    // Unlike a checkpoint area, the result store is not re-pinned at
    // another format: its entries are the results themselves.
    const std::string dir = storeDir("format_mismatch");
    { ResultStore store(dir, 1); }
    {
        std::ofstream os(dir + "/store_meta.json", std::ios::trunc);
        os << "{\"storeVersion\": " << store_format_version + 1
           << ", \"schemaVersion\": 1}";
    }
    EXPECT_EXIT(ResultStore(dir, 1), ::testing::ExitedWithCode(1),
                "format v");
}

TEST(ResultStoreDeath, RefusesCorruptMetadata)
{
    const std::string dir = storeDir("bad_meta");
    { ResultStore store(dir); }
    {
        std::ofstream os(dir + "/store_meta.json", std::ios::trunc);
        os << "{broken";
    }
    EXPECT_EXIT(ResultStore{dir}, ::testing::ExitedWithCode(1),
                "corrupt store metadata");
}

TEST(ResultStore, DifferentSchemaVersionsNeverShareFiles)
{
    // Same fingerprint, different schema version in the *filename*:
    // even without the metadata guard the lookup could not hit.
    ResultStore v1(storeDir("v_one"), 1);
    ResultStore v2(storeDir("v_two"), 2);
    const SimJob job =
        fastPair(UbenchId::CpuInt, UbenchId::CpuInt, 4, 4);
    const std::string fp = ResultStore::fingerprintHex(job);
    EXPECT_NE(v1.pathFor(fp).substr(v1.dir().size()),
              v2.pathFor(fp).substr(v2.dir().size()));
}

// --- SimRunner wiring --------------------------------------------------

TEST(ResultStore, RunnerWritesThroughAndReadsBackAcrossCaches)
{
    const std::string dir = storeDir("runner");
    ResultStore store(dir);
    const SimJob job =
        fastPair(UbenchId::CpuInt, UbenchId::LdintMem, 4, 5);

    // First "process": cold cache, executes and writes through.
    ResultCache cache_a;
    SimRunner first(1, &cache_a);
    first.setStore(&store, /*read_through=*/false);
    const SimResult executed = first.runOne(job);
    EXPECT_EQ(store.writes(), 1u);

    // Second "process": fresh cache, read-through serves from disk
    // without simulating (writes stays put).
    ResultCache cache_b;
    SimRunner second(1, &cache_b);
    second.setStore(&store, /*read_through=*/true);
    const SimResult resumed = second.runOne(job);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.writes(), 1u);
    expectIdentical(resumed.fame, executed.fame);
}

TEST(ResultStore, WithoutResumeTheStoreIsWriteOnly)
{
    const std::string dir = storeDir("write_only");
    ResultStore store(dir);
    const SimJob job =
        fastPair(UbenchId::CpuInt, UbenchId::CpuInt, 3, 4);

    ResultCache cache_a;
    SimRunner first(1, &cache_a);
    first.setStore(&store, false);
    first.runOne(job);

    // No read-through: a fresh cache re-executes and re-publishes.
    ResultCache cache_b;
    SimRunner second(1, &cache_b);
    second.setStore(&store, false);
    second.runOne(job);
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.writes(), 2u);
    EXPECT_EQ(store.countEntries(), 1u);
}

TEST(ResultStore, ConcurrentShardedWritersLoseNoPoints)
{
    // Two runners with independent caches (stand-ins for two --shard
    // processes) write disjoint halves of one sweep into one shared
    // store, concurrently. Every point must land exactly once.
    const std::string dir = storeDir("concurrent");
    ResultStore store_a(dir);
    ResultStore store_b(dir);

    // Moderate priority skews only: extreme pairs (e.g. 7 vs 1) starve
    // the low thread into the FAME cycle guard, which is correct but
    // takes minutes — wrong trade for a unit test.
    std::vector<SimJob> all;
    for (int prio_p : {3, 4, 5, 6})
        for (int prio_s : {4, 5})
            all.push_back(fastPair(UbenchId::CpuInt, UbenchId::CpuInt,
                                   prio_p, prio_s));
    std::vector<SimJob> shard0, shard1;
    for (std::size_t i = 0; i < all.size(); ++i)
        (i % 2 ? shard1 : shard0).push_back(all[i]);

    auto runShard = [](ResultStore &store,
                       const std::vector<SimJob> &jobs) {
        ResultCache cache;
        SimRunner runner(2, &cache);
        runner.setStore(&store, true);
        runner.run(jobs);
    };
    std::thread t0(runShard, std::ref(store_a), std::cref(shard0));
    std::thread t1(runShard, std::ref(store_b), std::cref(shard1));
    t0.join();
    t1.join();

    EXPECT_EQ(store_a.countEntries(), all.size());
    ResultStore verify(dir);
    for (const SimJob &job : all) {
        SimResult out;
        EXPECT_TRUE(verify.load(job, out))
            << ResultStore::fingerprintHex(job);
    }
    EXPECT_EQ(verify.hits(), all.size());
    EXPECT_EQ(verify.quarantined(), 0u);
}

} // namespace
} // namespace p5
