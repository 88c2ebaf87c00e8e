/**
 * @file
 * The artifact-store primitive: every storage decision shared by the
 * ResultStore (store/), the CkptStore (ckpt/) and trace files
 * (program/trace.hh). Each of those is a thin typed view over the
 * pieces here, so a durability or layout fix lands in one place.
 *
 * The decisions, each owned once:
 *
 *  - directory setup: mkdir -p of an area and its shard directories;
 *  - a root meta file pinning the area's format and config schema
 *    versions; opening an area written under another config schema is
 *    fatal, and so is another format, except that a cache area is
 *    re-pinned to this binary's format (its old files just miss);
 *  - path naming: <dir>/<fp[0:2]>/<fp>-<tag>v<N>.<ext>, where fp is a
 *    16-hex-digit content address; the two-digit shards keep any one
 *    directory small (≤ 256-way fanout) even for 10^5-point sweeps;
 *  - atomic publish: write a temp file ("<path>.tmp.<pid>.<n>") in the
 *    final directory, then rename(2) it into place, so concurrent
 *    writers (sharded sweeps over one directory) never expose a torn
 *    file;
 *  - lookup: read, or miss, or quarantine an invalid file to
 *    "<path>.bad" (disks and manual edits corrupt files; a killed
 *    writer cannot), so the artifact is recomputed and the evidence
 *    kept, with hit/miss/write/quarantine counters;
 *  - the frame format of binary artifacts: one compact JSON header
 *    line with a "magic" member, '\n', then a payload checked against
 *    the header's "bytes" and "checksum" members;
 *  - hex16, the printed form of every 64-bit identity;
 *  - file-name classification (live, quarantined, orphan temp,
 *    superseded generation) for store-gc.
 *
 * See DESIGN §12.
 */

#ifndef P5SIM_COMMON_ARTIFACT_HH
#define P5SIM_COMMON_ARTIFACT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "common/json.hh"

namespace p5 {

/** @p v as 16 zero-padded lowercase hex digits. */
std::string hex16(std::uint64_t v);

/** The inverse of hex16; false unless @p text is exactly its form. */
bool parseHex16(const std::string &text, std::uint64_t &out);

/** True for a stat()-able path. */
bool fileExists(const std::string &path);

/** Read all of @p path (binary); false when it cannot be opened. */
bool readFileBytes(const std::string &path, std::string &out);

/**
 * Atomic publish of @p bytes at @p path: temp file, then rename.
 * fatal() on failure, naming the file as a @p noun file.
 */
void publishFile(const std::string &path, const std::string &bytes,
                 const char *noun);

/**
 * Move @p path to "<path>.bad" and warn() that a corrupt @p noun file
 * was quarantined. False (and no warning) when the rename failed.
 */
bool quarantineFile(const std::string &path, const char *noun);

// --- frames --------------------------------------------------------------

/** Builds one frame: header line, '\n', payload. */
class FrameWriter
{
  public:
    /** Open the header object with its "magic" member. */
    FrameWriter(const char *magic, const std::uint8_t *payload,
                std::size_t size);

    /** The header object, for the caller's members. */
    JsonWriter &header() { return json_; }

    /** Write the "bytes" and "checksum" members of the payload. */
    void payloadMembers();

    /** Close the header; the complete frame bytes. */
    std::string finish();

  private:
    std::ostringstream os_;
    JsonWriter json_;
    const std::uint8_t *payload_;
    std::size_t size_;
};

/** A parsed frame: its header object and a view of its payload. */
struct Frame
{
    JsonValue header;
    std::string_view payload;
};

/**
 * Split @p blob into header and payload and parse the header line: a
 * JSON object whose "magic" member is @p magic. Errors are fatal(),
 * naming the artifact as a @p noun and the file as @p path. The
 * payload views @p blob.
 */
Frame parseFrame(const std::string &blob, const std::string &path,
                 const char *noun, const char *magic);

/** parseFrame over the whole file at @p path (read into @p blob). */
Frame readFrame(const std::string &path, const char *noun,
                const char *magic, std::string &blob);

/** Read and parse only the header line of the frame at @p path. */
JsonValue readFrameHeader(const std::string &path, const char *noun,
                          const char *magic);

/** fatal() unless the payload matches the header's "bytes" and
 *  "checksum". */
void checkFramePayload(const Frame &frame, const char *noun);

// --- file names ----------------------------------------------------------

/** The generation a store names its files by: "<fp>-<tag>v<N>.<ext>". */
struct ArtifactLayout
{
    const char *tag;
    const char *ext;
    int version;
};

/** What a file name in an artifact area is, relative to one layout. */
enum class ArtifactFile
{
    Live,        ///< this layout's current generation
    Quarantined, ///< "*.bad" (any layout)
    OrphanTemp,  ///< "*.tmp.*": a writer died before its rename
    Superseded,  ///< this layout's name at another version
    Foreign,     ///< not a file of this layout
};

/** Classify basename @p name; needs neither the file nor its area. */
ArtifactFile classifyArtifactFile(const std::string &name,
                                  const ArtifactLayout &layout);

// --- areas ---------------------------------------------------------------

/** What distinguishes one kind of version-pinned area from another. */
struct ArtifactSpec
{
    const char *noun;          ///< "store": its directory, files, metadata
    const char *area;          ///< "store": the area as a whole
    const char *metaName;      ///< root meta file
    const char *versionMember; ///< meta/file member holding the format
    int formatVersion;
    /** The files can be recomputed: meta pinned at another format is
     *  re-pinned to formatVersion instead of fatal. */
    bool cache;
};

/**
 * One directory of content-addressed artifacts. Thread-safe: the only
 * mutable state is atomic counters; concurrent writers (threads or
 * processes) coordinate through rename alone, and both writers of one
 * address write identical bytes.
 */
class ArtifactArea
{
  public:
    /**
     * Open @p dir (mkdir -p), then check its meta file against
     * @p spec's format version and @p schema_version, or write one.
     * A foreign schema is fatal; a foreign format is fatal too, unless
     * @p spec is a cache, whose meta file is then rewritten.
     */
    ArtifactArea(std::string dir, const ArtifactSpec &spec,
                 ArtifactLayout layout, int schema_version);

    ArtifactArea(const ArtifactArea &) = delete;
    ArtifactArea &operator=(const ArtifactArea &) = delete;

    const std::string &dir() const { return dir_; }
    int schemaVersion() const { return schemaVersion_; }

    /** The path of address @p fp. */
    std::string pathFor(const std::string &fp) const;

    /** Existence probe; no read or validation. */
    bool contains(const std::string &fp) const;

    /**
     * The one counted lookup. A malformed address or an absent file is
     * a miss; otherwise @p decode reads the bytes, and a file it
     * rejects (by throwing p5::Error) is quarantined and reported as a
     * miss.
     */
    bool load(const std::string &fp,
              const std::function<void(const std::string &)> &decode);

    /** Publish @p bytes at address @p fp. */
    void put(const std::string &fp, const std::string &bytes);

    /** Write the format and schema version members. */
    void writeVersions(JsonWriter &w) const;

    /** True when @p doc carries this area's versions. */
    bool currentVersions(const JsonValue &doc) const;

    /** Live files of this layout across the shard directories. */
    std::size_t countLive() const;

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t writes() const { return writes_.load(); }
    std::uint64_t quarantined() const { return quarantined_.load(); }

  private:
    std::string dir_;
    const ArtifactSpec &spec_;
    ArtifactLayout layout_;
    int schemaVersion_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> quarantined_{0};
};

} // namespace p5

#endif // P5SIM_COMMON_ARTIFACT_HH
