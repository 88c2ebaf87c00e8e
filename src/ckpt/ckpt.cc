#include "ckpt/ckpt.hh"

#include "common/log.hh"
#include "common/rng.hh"

namespace p5 {

namespace {

constexpr ArtifactSpec ckpt_spec{"checkpoint", "checkpoint area",
                                 "ckpt_meta.json", "ckptVersion",
                                 ckpt_format_version, true};
constexpr const char *header_magic = "p5sim-ckpt";

} // namespace

std::string
ckptFingerprintHex(const std::string &warm_key)
{
    // Its own chain constant, so checkpoint addresses are independent
    // of both the result-store addresses and the job RNG streams even
    // for keys that happen to share text.
    return hex16(hashText(0xc4b7a11ced15f0e3ULL, warm_key));
}

ArtifactLayout
CkptStore::layout()
{
    return {"ckpt-", "bin", ckpt_format_version};
}

CkptStore::CkptStore(std::string dir, int schema_version)
    : area_(std::move(dir), ckpt_spec, layout(), schema_version)
{
}

std::string
CkptStore::pathFor(const std::string &fp_hex) const
{
    return area_.pathFor(fp_hex);
}

bool
CkptStore::load(const std::string &warm_key, Checkpoint &out)
{
    const std::string fp = ckptFingerprintHex(warm_key);
    return area_.load(fp, [&](const std::string &bytes) {
        const Frame frame =
            parseFrame(bytes, pathFor(fp), "checkpoint", header_magic);
        if (!area_.currentVersions(frame.header))
            fatal("checkpoint is not at this area's versions");
        // The embedded warm key turns a fingerprint collision (or a
        // misplaced file) into a miss instead of a foreign-state
        // restore.
        if (frame.header.at("fingerprint").asString() != fp ||
            frame.header.at("warmKey").asString() != warm_key)
            fatal("checkpoint holds another warm key's state");
        const Cycle warm_cycles = frame.header.at("warmCycles").asUint();
        checkFramePayload(frame, "checkpoint");
        out.warmKey = warm_key;
        out.fingerprint = fp;
        out.warmCycles = warm_cycles;
        const auto *data =
            reinterpret_cast<const std::uint8_t *>(frame.payload.data());
        out.state.assign(data, data + frame.payload.size());
    });
}

void
CkptStore::put(const Checkpoint &ckpt)
{
    const std::string fp = ckpt.fingerprint.empty()
                               ? ckptFingerprintHex(ckpt.warmKey)
                               : ckpt.fingerprint;
    FrameWriter frame(header_magic, ckpt.state.data(), ckpt.state.size());
    JsonWriter &w = frame.header();
    area_.writeVersions(w);
    w.member("fingerprint", fp);
    w.member("warmCycles", static_cast<std::int64_t>(ckpt.warmCycles));
    frame.payloadMembers();
    w.member("warmKey", ckpt.warmKey);
    area_.put(fp, frame.finish());
}

} // namespace p5
