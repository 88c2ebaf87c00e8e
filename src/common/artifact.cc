#include "common/artifact.hh"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <unistd.h>

#include "common/log.hh"
#include "common/rng.hh"

namespace p5 {

namespace {

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/**
 * mkdir -p. A checkpoint area often lives inside a result store that
 * does not exist yet, and --store may name a path several components
 * deep, so every missing ancestor is created. The common case (parent
 * present) costs one mkdir.
 */
void
makeDirs(const std::string &path, const char *noun)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return;
    const std::size_t slash = path.find_last_of('/');
    if (errno == ENOENT && slash != std::string::npos && slash > 0) {
        makeDirs(path.substr(0, slash), noun);
        if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
            return;
    }
    fatal("cannot create %s directory '%s': %s", noun, path.c_str(),
          std::strerror(errno));
}

} // namespace

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
parseHex16(const std::string &text, std::uint64_t &out)
{
    if (text.size() != 16 ||
        text.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    out = std::stoull(text, nullptr, 16);
    return true;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

bool
readFileBytes(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream buf;
    buf << is.rdbuf();
    out = buf.str();
    return true;
}

void
publishFile(const std::string &path, const std::string &bytes,
            const char *noun)
{
    // The temp file sits in the final directory (rename(2) never
    // crosses filesystems) under a name no other writer uses.
    static std::atomic<std::uint64_t> temp_counter{0};
    const std::string temp = path + ".tmp." + std::to_string(::getpid()) +
                             "." +
                             std::to_string(temp_counter.fetch_add(1));
    {
        std::ofstream os(temp, std::ios::binary);
        if (!os)
            fatal("cannot write %s file '%s'", noun, temp.c_str());
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        if (!os.flush())
            fatal("short write to %s file '%s'", noun, temp.c_str());
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0)
        fatal("cannot publish %s file '%s': %s", noun, path.c_str(),
              std::strerror(errno));
}

bool
quarantineFile(const std::string &path, const char *noun)
{
    if (std::rename(path.c_str(), (path + ".bad").c_str()) != 0)
        return false;
    warn("quarantined corrupt %s file '%s' (now .bad)", noun,
         path.c_str());
    return true;
}

// --- frames --------------------------------------------------------------

FrameWriter::FrameWriter(const char *magic, const std::uint8_t *payload,
                         std::size_t size)
    // Compact mode: the header must be exactly one line (the payload
    // starts after the first '\n'), so `head -1` inspects any frame.
    : json_(os_, -1), payload_(payload), size_(size)
{
    json_.beginObject();
    json_.member("magic", magic);
}

void
FrameWriter::payloadMembers()
{
    json_.member("bytes", static_cast<std::uint64_t>(size_));
    json_.member("checksum", hex16(hashBytes(payload_, size_)));
}

std::string
FrameWriter::finish()
{
    json_.endObject();
    os_ << '\n';
    os_.write(reinterpret_cast<const char *>(payload_),
              static_cast<std::streamsize>(size_));
    return os_.str();
}

namespace {

JsonValue
parseFrameHeader(std::string_view line, const std::string &path,
                 const char *noun, const char *magic)
{
    JsonValue header;
    std::string parse_error;
    if (!tryParseJson(line, header, &parse_error, path))
        fatal("bad %s header: %s", noun, parse_error.c_str());
    if (!header.isObject())
        fatal("%s header is not a JSON object", noun);
    const JsonValue *m = header.find("magic");
    if (!m || !m->isString() || m->asString() != magic)
        fatal("not a p5sim %s (bad magic)", noun);
    return header;
}

[[noreturn]] void
noHeaderLine(const char *noun, const std::string &path)
{
    fatal("%s '%s' has no header line", noun, path.c_str());
}

[[noreturn]] void
cannotOpen(const char *noun, const std::string &path)
{
    fatal("cannot open %s '%s'", noun, path.c_str());
}

} // namespace

Frame
parseFrame(const std::string &blob, const std::string &path,
           const char *noun, const char *magic)
{
    const std::size_t nl = blob.find('\n');
    if (nl == std::string::npos)
        noHeaderLine(noun, path);
    return {parseFrameHeader(std::string_view(blob).substr(0, nl), path,
                             noun, magic),
            std::string_view(blob).substr(nl + 1)};
}

Frame
readFrame(const std::string &path, const char *noun, const char *magic,
          std::string &blob)
{
    if (!readFileBytes(path, blob))
        cannotOpen(noun, path);
    return parseFrame(blob, path, noun, magic);
}

JsonValue
readFrameHeader(const std::string &path, const char *noun,
                const char *magic)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        cannotOpen(noun, path);
    std::string line;
    if (!std::getline(is, line) || line.empty())
        noHeaderLine(noun, path);
    return parseFrameHeader(line, path, noun, magic);
}

void
checkFramePayload(const Frame &frame, const char *noun)
{
    const JsonValue *bytes = frame.header.find("bytes");
    const JsonValue *checksum = frame.header.find("checksum");
    if (!bytes || !bytes->isInt() || !checksum || !checksum->isString())
        fatal("%s header has no payload size or checksum", noun);
    if (bytes->asInt() != static_cast<std::int64_t>(frame.payload.size()))
        fatal("%s payload is %zu bytes, header says %lld", noun,
              frame.payload.size(),
              static_cast<long long>(bytes->asInt()));
    const auto *data =
        reinterpret_cast<const std::uint8_t *>(frame.payload.data());
    if (hex16(hashBytes(data, frame.payload.size())) !=
        checksum->asString())
        fatal("%s payload checksum mismatch", noun);
}

// --- file names ----------------------------------------------------------

ArtifactFile
classifyArtifactFile(const std::string &name, const ArtifactLayout &layout)
{
    if (endsWith(name, ".bad"))
        return ArtifactFile::Quarantined;
    if (name.find(".tmp.") != std::string::npos)
        return ArtifactFile::OrphanTemp; // a crash between create and rename
    const std::string marker = std::string("-") + layout.tag + "v";
    const std::string suffix = std::string(".") + layout.ext;
    const std::size_t m = name.rfind(marker);
    if (m == std::string::npos || !endsWith(name, suffix))
        return ArtifactFile::Foreign;
    const std::size_t digits = m + marker.size();
    const std::size_t end = name.size() - suffix.size();
    if (end <= digits ||
        name.find_first_not_of("0123456789", digits) != end)
        return ArtifactFile::Foreign;
    // The version is part of the name, so a file of any generation
    // other than the one this binary writes is never looked up again.
    return name.compare(digits, end - digits,
                        std::to_string(layout.version)) == 0
               ? ArtifactFile::Live
               : ArtifactFile::Superseded;
}

// --- areas ---------------------------------------------------------------

ArtifactArea::ArtifactArea(std::string dir, const ArtifactSpec &spec,
                           ArtifactLayout layout, int schema_version)
    : dir_(std::move(dir)), spec_(spec), layout_(layout),
      schemaVersion_(schema_version)
{
    if (dir_.empty())
        fatal("%s directory must not be empty", spec_.noun);
    while (dir_.size() > 1 && dir_.back() == '/')
        dir_.pop_back();
    makeDirs(dir_, spec_.noun);

    const std::string meta_path = dir_ + "/" + spec_.metaName;
    std::string meta_text;
    if (readFileBytes(meta_path, meta_text) && !meta_text.empty()) {
        // An existing area: its pinned versions must match ours, or
        // every lookup would be answered from configurations whose
        // fingerprints mean something else (stale-store poisoning).
        JsonValue meta;
        std::string error;
        if (!tryParseJson(meta_text, meta, &error, meta_path))
            fatal("corrupt %s metadata: %s", spec_.noun, error.c_str());
        const JsonValue *format_v =
            meta.isObject() ? meta.find(spec_.versionMember) : nullptr;
        const JsonValue *schema_v =
            meta.isObject() ? meta.find("schemaVersion") : nullptr;
        if (!format_v || !format_v->isInt() || !schema_v ||
            !schema_v->isInt())
            fatal("%s metadata '%s' is missing its version members",
                  spec_.noun, meta_path.c_str());
        const bool same_format = format_v->asInt() == spec_.formatVersion;
        if (!same_format && !spec_.cache)
            fatal("%s '%s' uses format v%lld; this binary writes v%d — "
                  "refusing to mix formats",
                  spec_.area, dir_.c_str(),
                  static_cast<long long>(format_v->asInt()),
                  spec_.formatVersion);
        if (schema_v->asInt() != schemaVersion_)
            fatal("%s '%s' was written under config schema version "
                  "%lld; this binary uses version %d — refusing to "
                  "read from (or write into) an incompatible %s",
                  spec_.area, dir_.c_str(),
                  static_cast<long long>(schema_v->asInt()),
                  schemaVersion_, spec_.area);
        if (same_format)
            return;
        // A cache at another format: every file name carries its
        // version, so the old files just miss and are recomputed.
        inform("%s '%s' was pinned at format v%lld; re-pinned to v%d "
               "(store-gc reclaims the superseded files)",
               spec_.area, dir_.c_str(),
               static_cast<long long>(format_v->asInt()),
               spec_.formatVersion);
    }
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        writeVersions(w);
        w.endObject();
    }
    // Concurrent creators (and re-pinners) write identical bytes;
    // rename races are therefore harmless.
    publishFile(meta_path, os.str(), spec_.noun);
}

std::string
ArtifactArea::pathFor(const std::string &fp) const
{
    return dir_ + "/" + fp.substr(0, 2) + "/" + fp + "-" + layout_.tag +
           "v" + std::to_string(layout_.version) + "." + layout_.ext;
}

bool
ArtifactArea::contains(const std::string &fp) const
{
    return fileExists(pathFor(fp));
}

bool
ArtifactArea::load(const std::string &fp,
                   const std::function<void(const std::string &)> &decode)
{
    std::uint64_t fp_value = 0;
    const bool address = parseHex16(fp, fp_value);
    const std::string path = address ? pathFor(fp) : std::string();
    std::string bytes;
    if (!address || !readFileBytes(path, bytes)) {
        misses_.fetch_add(1);
        return false;
    }
    try {
        decode(bytes);
    } catch (const Error &) {
        // Another thread or process may have quarantined (or replaced)
        // the file already; either way the bad bytes are out of the
        // lookup path, which is all that matters.
        quarantineFile(path, spec_.noun);
        quarantined_.fetch_add(1);
        misses_.fetch_add(1);
        return false;
    }
    hits_.fetch_add(1);
    return true;
}

void
ArtifactArea::put(const std::string &fp, const std::string &bytes)
{
    makeDirs(dir_ + "/" + fp.substr(0, 2), spec_.noun);
    publishFile(pathFor(fp), bytes, spec_.noun);
    writes_.fetch_add(1);
}

void
ArtifactArea::writeVersions(JsonWriter &w) const
{
    w.member(spec_.versionMember, spec_.formatVersion);
    w.member("schemaVersion", schemaVersion_);
}

bool
ArtifactArea::currentVersions(const JsonValue &doc) const
{
    if (!doc.isObject())
        return false;
    const JsonValue *format_v = doc.find(spec_.versionMember);
    const JsonValue *schema_v = doc.find("schemaVersion");
    return format_v && format_v->isInt() &&
           format_v->asInt() == spec_.formatVersion && schema_v &&
           schema_v->isInt() && schema_v->asInt() == schemaVersion_;
}

std::size_t
ArtifactArea::countLive() const
{
    std::size_t count = 0;
    DIR *top = ::opendir(dir_.c_str());
    if (!top)
        return 0;
    while (const dirent *shard = ::readdir(top)) {
        const std::string name = shard->d_name;
        if (name.size() != 2 || name == "..")
            continue;
        DIR *sub = ::opendir((dir_ + "/" + name).c_str());
        if (!sub)
            continue;
        while (const dirent *entry = ::readdir(sub))
            if (classifyArtifactFile(entry->d_name, layout_) ==
                ArtifactFile::Live)
                ++count;
        ::closedir(sub);
    }
    ::closedir(top);
    return count;
}

} // namespace p5
