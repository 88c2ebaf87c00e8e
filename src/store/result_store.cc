#include "store/result_store.hh"

#include <sstream>

#include "common/log.hh"
#include "common/rng.hh"
#include "store/result_io.hh"

namespace p5 {

namespace {

constexpr ArtifactSpec store_spec{"store", "store", "store_meta.json",
                                  "storeVersion", store_format_version,
                                  false};

} // namespace

ArtifactLayout
ResultStore::layout(int schema_version)
{
    return {"", "json", schema_version};
}

ResultStore::ResultStore(std::string dir, int schema_version)
    : area_(std::move(dir), store_spec, layout(schema_version),
            schema_version)
{
}

std::string
ResultStore::fingerprintHex(const SimJob &job)
{
    // Distinct chain from SimJob::rngSeed() (different initial mix), so
    // the store address and the RNG stream stay independent functions
    // of the key.
    return hex16(hashText(0xce5707ed2f00dbadULL, job.key()));
}

std::string
ResultStore::pathFor(const std::string &fp_hex) const
{
    return area_.pathFor(fp_hex);
}

bool
ResultStore::contains(const SimJob &job) const
{
    return storableKind(job.kind) && area_.contains(fingerprintHex(job));
}

JsonValue
ResultStore::parseDoc(const std::string &bytes) const
{
    JsonValue doc = parseJson(bytes);
    if (!area_.currentVersions(doc))
        fatal("store document is not at this store's versions");
    return doc;
}

bool
ResultStore::load(const SimJob &job, SimResult &out)
{
    // A job that is never stored has no address: a counted miss.
    const std::string fp =
        storableKind(job.kind) ? fingerprintHex(job) : std::string();
    return area_.load(fp, [&](const std::string &bytes) {
        const JsonValue doc = parseDoc(bytes);
        // The embedded canonical key turns a fingerprint collision (or
        // a hand-misplaced file) into a miss instead of a wrong result.
        if (doc.at("jobKey").asString() != job.key())
            fatal("store document holds another job's result");
        out = readSimResult(doc.at("result"));
    });
}

void
ResultStore::put(const SimJob &job, const SimResult &result,
                 const StoreProvenance &prov)
{
    if (!storableKind(job.kind))
        return;
    const std::string fp = fingerprintHex(job);
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        area_.writeVersions(w);
        w.member("fingerprint", fp);
        w.member("configFingerprint", job.configTag);
        w.member("jobKey", job.key());
        w.member("seed", prov.seed);
        w.key("sweep");
        w.beginObject();
        for (const auto &coord : prov.sweep)
            w.member(coord.first, coord.second);
        w.endObject();
        w.key("result");
        writeSimResult(w, result);
        w.endObject();
    }
    area_.put(fp, os.str());
}

bool
ResultStore::loadRaw(const std::string &fp_hex, JsonValue &out)
{
    return area_.load(fp_hex, [&](const std::string &bytes) {
        out = parseDoc(bytes);
    });
}

std::size_t
ResultStore::countEntries() const
{
    return area_.countLive();
}

} // namespace p5
