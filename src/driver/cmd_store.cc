#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/artifact.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "config/config.hh"
#include "driver/commands.hh"
#include "store/result_store.hh"

namespace p5 {

namespace {

/** Split @p line on runs of spaces/tabs. */
std::vector<std::string>
splitTokens(const std::string &line)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : line) {
        if (c == ' ' || c == '\t') {
            if (!cur.empty()) {
                out.push_back(cur);
                cur.clear();
            }
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** One compact-JSON error reply line. */
void
serveError(std::ostream &os, const std::string &message)
{
    {
        JsonWriter w(os, -1);
        w.beginObject();
        w.member("error", message);
        w.endObject();
    }
    os << '\n';
}

/** One file store-gc would (or did) delete, and why. */
struct GcCandidate
{
    std::string path;
    std::uint64_t bytes = 0;
    const char *reason = "";
};

/**
 * Decide whether basename @p name is reclaimable garbage. The rules
 * are filename-driven on purpose: a collector must not need to open
 * (or trust) the files it is about to delete, and must keep working on
 * an area whose meta pins an older schema (where ResultStore's own
 * constructor would refuse to open). Files of a generation other than
 * the one this binary writes are dead weight: the stores never look
 * them up.
 */
const char *
gcReason(const std::string &name)
{
    const std::pair<ArtifactLayout, const char *> layouts[] = {
        {CkptStore::layout(), "superseded checkpoint format"},
        {ResultStore::layout(), "superseded result schema"},
    };
    for (const auto &[layout, superseded] : layouts) {
        switch (classifyArtifactFile(name, layout)) {
          case ArtifactFile::Quarantined:
            return "quarantined";
          case ArtifactFile::OrphanTemp:
            return "orphan temp";
          case ArtifactFile::Superseded:
            return superseded;
          case ArtifactFile::Live:
            return nullptr;
          case ArtifactFile::Foreign:
            break;
        }
    }
    return nullptr;
}

/**
 * Recursively collect gc candidates under @p dir (sorted later). Uses
 * lstat, so a symlink is never descended into: a link to "." would
 * loop, and a link out of the store would let --apply delete files
 * that the store does not own.
 */
void
gcScan(const std::string &dir, std::vector<GcCandidate> &out)
{
    DIR *d = opendir(dir.c_str());
    if (!d)
        return;
    while (const dirent *entry = readdir(d)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..")
            continue;
        const std::string path = dir + "/" + name;
        struct stat st;
        if (::lstat(path.c_str(), &st) != 0)
            continue;
        if (S_ISDIR(st.st_mode)) {
            gcScan(path, out);
            continue;
        }
        if (const char *reason = gcReason(name))
            out.push_back(GcCandidate{
                path, static_cast<std::uint64_t>(st.st_size), reason});
    }
    closedir(d);
}

} // namespace

// --- serve -------------------------------------------------------------

/**
 * Answer fingerprint and store queries over a line protocol (stdin ->
 * stdout, one compact JSON reply per request line):
 *
 *   fingerprint [key=value ...]  config fingerprint of the base config
 *                                (from --config/--set/... flags) with
 *                                the given --set-style overrides applied
 *   get <fp> [<fp> ...]          the stored document at each 16-hex-digit
 *                                job fingerprint, verbatim — one reply
 *                                line per fingerprint, in request order
 *   mget <fp> [<fp> ...]         the same lookups as one reply line:
 *                                {"results":[...]} parallel to the
 *                                request, misses as inline error objects
 *   stat                         store-wide counters and entry count
 *   quit                         {"ok":true}, then exit 0 (EOF too)
 *
 * Unknown commands, unknown config keys, malformed or out-of-range
 * values (e.g. "fingerprint core.decode_width=8x"), overrides that
 * break a cross-field invariant (ConfigTree::validate) and absent
 * fingerprints are error replies, not process exits — a prober must
 * survive its own typos.
 */
int
cmdServe(const Cli &cli, DriverContext &ctx, ExpConfig &base)
{
    if (cli.str("store").empty())
        fatal("serve requires --store DIR");
    ResultStore store(cli.str("store"));

    std::istream &in = *ctx.in;
    std::ostream &out = *ctx.out;
    std::string line;
    while (std::getline(in, line)) {
        const std::vector<std::string> tokens = splitTokens(line);
        if (tokens.empty())
            continue;
        const std::string &cmd = tokens[0];

        if (cmd == "quit") {
            JsonWriter w(out, -1);
            w.beginObject();
            w.member("ok", true);
            w.endObject();
            out << '\n';
            break;
        }

        if (cmd == "stat") {
            {
                JsonWriter w(out, -1);
                w.beginObject();
                w.member("dir", store.dir());
                w.member("schemaVersion", store.schemaVersion());
                w.member("entries", static_cast<std::uint64_t>(
                                        store.countEntries()));
                w.member("hits", store.hits());
                w.member("misses", store.misses());
                w.member("quarantined", store.quarantined());
                w.endObject();
            }
            out << '\n';
            continue;
        }

        if (cmd == "get") {
            if (tokens.size() < 2) {
                serveError(out,
                           "get expects at least one fingerprint");
                continue;
            }
            // One reply line PER fingerprint, in request order — the
            // streaming shape: a reader can act on each document as it
            // arrives without waiting for the batch.
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                JsonValue doc;
                if (!store.loadRaw(tokens[i], doc)) {
                    serveError(out,
                               "no stored result for fingerprint '" +
                                   tokens[i] + "'");
                    continue;
                }
                {
                    JsonWriter w(out, -1);
                    doc.write(w);
                }
                out << '\n';
            }
            continue;
        }

        if (cmd == "mget") {
            if (tokens.size() < 2) {
                serveError(out,
                           "mget expects at least one fingerprint");
                continue;
            }
            // Exactly ONE reply line for the whole request — the
            // transactional shape: "results" parallels the request,
            // with an inline {"error": ...} object for each miss, so a
            // caller can pair replies to fingerprints by index.
            {
                JsonWriter w(out, -1);
                w.beginObject();
                w.key("results");
                w.beginArray();
                for (std::size_t i = 1; i < tokens.size(); ++i) {
                    JsonValue doc;
                    if (store.loadRaw(tokens[i], doc)) {
                        doc.write(w);
                    } else {
                        w.beginObject();
                        w.member("error",
                                 "no stored result for fingerprint '" +
                                     tokens[i] + "'");
                        w.endObject();
                    }
                }
                w.endArray();
                w.endObject();
            }
            out << '\n';
            continue;
        }

        if (cmd == "fingerprint") {
            // Apply the query's overrides to a copy of the flag-built
            // base config, so one server answers for a whole family of
            // configurations.
            ExpConfig cfg = base;
            ConfigTree tree(cfg);
            try {
                for (std::size_t i = 1; i < tokens.size(); ++i)
                    tree.applyOverride(tokens[i]);
                tree.validate();
            } catch (const Error &e) {
                serveError(out, e.what());
                continue;
            }
            tree.stampTag();
            {
                JsonWriter w(out, -1);
                w.beginObject();
                w.member("fingerprint", cfg.configTag);
                w.member("schemaVersion", config_schema_version);
                w.endObject();
            }
            out << '\n';
            continue;
        }

        serveError(out, "unknown command '" + cmd +
                            "' (try: fingerprint, get, mget, stat, "
                            "quit)");
    }
    return 0;
}

// --- store-gc ----------------------------------------------------------

/**
 * Reclaim dead files from a result-store directory (including its
 * ckpt/ area): quarantined *.bad files, orphaned *.tmp.* files from
 * crashed writers, and results/checkpoints of superseded schema or
 * format generations. Dry run by default — it lists what --apply
 * would delete and the bytes that would come back. Never touches live
 * entries or the meta files.
 */
int
cmdStoreGc(const Cli &cli, DriverContext &ctx, ExpConfig &)
{
    const std::string dir = cli.str("store");
    if (dir.empty())
        fatal("store-gc requires --store DIR");
    const bool apply = cli.boolean("apply");

    std::vector<GcCandidate> candidates;
    gcScan(dir, candidates);
    std::sort(candidates.begin(), candidates.end(),
              [](const GcCandidate &a, const GcCandidate &b) {
                  return a.path < b.path;
              });

    std::ostream &out = *ctx.out;
    std::uint64_t bytes = 0;
    std::uint64_t removed = 0;
    std::uint64_t failed = 0;
    for (const GcCandidate &c : candidates) {
        out << (apply ? "rm " : "would rm ") << c.path << " ("
            << c.reason << ", " << c.bytes << " bytes)\n";
        if (!apply) {
            bytes += c.bytes;
            continue;
        }
        if (std::remove(c.path.c_str()) == 0) {
            bytes += c.bytes;
            ++removed;
        } else {
            // Lost a race with another collector, or permissions;
            // keep going — gc must be safe to run concurrently.
            out << "  (could not remove; skipped)\n";
            ++failed;
        }
    }
    out << "store-gc: " << candidates.size() << " candidate"
        << (candidates.size() == 1 ? "" : "s") << ", " << bytes
        << " bytes " << (apply ? "reclaimed" : "reclaimable");
    if (!apply)
        out << " (dry run; pass --apply to delete)";
    out << "\n";

    if (!ctx.jsonPath.empty()) {
        std::ofstream os(ctx.jsonPath);
        if (!os)
            fatal("cannot open --json file '%s'", ctx.jsonPath.c_str());
        JsonWriter w(os);
        w.beginObject();
        w.member("experiment", "store-gc");
        w.member("dir", dir);
        w.member("applied", apply);
        w.member("candidates",
                 static_cast<std::uint64_t>(candidates.size()));
        w.member("removed", removed);
        w.member("failed", failed);
        w.member("bytesReclaimed", bytes);
        w.key("files");
        w.beginArray();
        for (const GcCandidate &c : candidates) {
            w.beginObject();
            w.member("path", c.path);
            w.member("bytes", c.bytes);
            w.member("reason", c.reason);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    return failed ? 1 : 0;
}

} // namespace p5
