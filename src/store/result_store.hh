/**
 * @file
 * ResultStore: a persistent, content-addressed map from simulation
 * identity to result + provenance.
 *
 * The in-process ResultCache (fame/sim_runner.hh) coalesces identical
 * jobs within one process; the ResultStore extends that across
 * processes and machines. Every storable SimJob has a 64-bit
 * fingerprint — a SplitMix64 chain over its canonical key(), which
 * itself embeds the config-tree fingerprint (configTag), the program
 * specs, priorities and every parameter — and the store keeps one JSON
 * file per fingerprint:
 *
 *     <dir>/<fp[0:2]>/<fp>-v<schema>.json
 *
 * The directory, shard layout, store_meta.json pin, atomic publish,
 * quarantine of corrupt files and counters are those of the shared
 * ArtifactArea (common/artifact.hh, DESIGN §12). What this view adds:
 *
 *  - the config schema version is part of the *filename*, so a store
 *    written by an older schema can never satisfy a lookup from a newer
 *    binary — the on-disk analogue of the fingerprint cache-poisoning
 *    hole p5lint's config-completeness rule guards;
 *  - every file embeds the full canonical job key. Loads verify it
 *    against the requesting job, so even a 64-bit fingerprint collision
 *    degrades to a re-simulation, never a wrong result.
 *
 * All methods are thread-safe, across processes too.
 */

#ifndef P5SIM_STORE_RESULT_STORE_HH
#define P5SIM_STORE_RESULT_STORE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/artifact.hh"
#include "common/json.hh"
#include "config/config.hh"
#include "fame/sim_job.hh"

namespace p5 {

/** Version of the store file layout itself (member names, placement). */
constexpr int store_format_version = 1;

/** Run context stamped into every stored file for auditability. */
struct StoreProvenance
{
    /** exp.seed of the run that produced the result. */
    std::uint64_t seed = 0;

    /** Sweep coordinates of the point ("" outside a sweep). */
    std::vector<std::pair<std::string, std::string>> sweep;
};

/** On-disk content-addressed result store. */
class ResultStore
{
  public:
    /**
     * Open @p dir, creating it, its missing parents and
     * store_meta.json when absent.
     * Fatal when the directory cannot be created or when an existing
     * store was written by a different config schema version.
     */
    explicit ResultStore(std::string dir,
                         int schema_version = config_schema_version);

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    const std::string &dir() const { return area_.dir(); }
    int schemaVersion() const { return area_.schemaVersion(); }

    /** File naming of a store at @p schema_version (see store-gc). */
    static ArtifactLayout layout(int schema_version = config_schema_version);

    // --- addressing -----------------------------------------------------

    /** 16-hex-digit content address of @p job (hash of its key()). */
    static std::string fingerprintHex(const SimJob &job);

    /** Absolute path a fingerprint maps to under this store. */
    std::string pathFor(const std::string &fp_hex) const;

    // --- access ---------------------------------------------------------

    /** Cheap existence probe (no read or validation). */
    bool contains(const SimJob &job) const;

    /**
     * Validated read: parse the file at @p job's address, check the
     * store format, schema version and embedded job key, and
     * reconstruct the result. A missing file is a plain miss; an
     * invalid one is quarantined and reported as a miss.
     */
    bool load(const SimJob &job, SimResult &out);

    /** Write @p result under @p job's address (atomic publish). */
    void put(const SimJob &job, const SimResult &result,
             const StoreProvenance &prov);

    /**
     * Raw lookup by fingerprint for the serve path: the parsed stored
     * document, validated like load() but without a requesting job to
     * check the key against. Invalid files are quarantined. Counted
     * like load().
     */
    bool loadRaw(const std::string &fp_hex, JsonValue &out);

    /** Count of live result files in the store (directory scan). */
    std::size_t countEntries() const;

    // --- observability --------------------------------------------------

    std::uint64_t hits() const { return area_.hits(); }
    std::uint64_t misses() const { return area_.misses(); }
    std::uint64_t writes() const { return area_.writes(); }
    std::uint64_t quarantined() const { return area_.quarantined(); }

  private:
    /** Parse @p bytes as a store document of this store's versions. */
    JsonValue parseDoc(const std::string &bytes) const;

    ArtifactArea area_;
};

} // namespace p5

#endif // P5SIM_STORE_RESULT_STORE_HH
