/**
 * @file
 * Declarative configuration layer: one typed, serializable tree over
 * every experiment parameter.
 *
 * The simulator's knobs live in plain param structs (CoreParams,
 * BalancerParams, HierarchyParams/CacheParams/TlbParams, BhtParams,
 * FameParams, ExpConfig). ConfigTree binds each field of an ExpConfig
 * instance to a dotted snake_case path ("core.decode_width",
 * "core.balancer.gct_share_threshold", "fame.min_repetitions", ...).
 * A binding is a path, a help line, an identity flag, a JSON kind and
 * two closures: get() renders the field's canonical text and
 * set(text) parses, range-checks and assigns it, returning why it
 * refused instead of exiting. Everything else derives from those:
 *
 *  - JSON save/load (nested objects mirroring the dotted paths): save
 *    writes get()'s text as the field's JSON kind; load checks the
 *    kind, then hands the value's text to set(). Unknown keys are
 *    fatal, suggesting the nearest valid path;
 *  - "--set key=value" overrides, sweep axes and the serve protocol's
 *    fingerprint queries go through the same set(), so every surface
 *    shares one parser and one range check per field. set() and
 *    applyOverride() are fatal for the CLI; trySet() and
 *    tryApplyOverride() return the message for callers that recover;
 *  - a canonical rendering of all *identity* fields — the ones that can
 *    change a simulation's outcome — and a stable SplitMix64
 *    fingerprint over it. The fingerprint is folded into every SimJob
 *    key the experiment producers enumerate (ExpConfig::configTag) and
 *    stamped into every JSON report for provenance. Execution-only
 *    fields (worker count, benchmark selection) are serialized but
 *    excluded from the fingerprint, so caching across runs that differ
 *    only in how work is scheduled keeps coalescing.
 *
 * Adding a member to a bound param struct without binding it here is
 * caught by tests/test_config.cc's field-coverage guard.
 */

#ifndef P5SIM_CONFIG_CONFIG_HH
#define P5SIM_CONFIG_CONFIG_HH

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "exp/experiments.hh"

namespace p5 {

/**
 * Version of the dotted-path schema, folded into the canonical form so
 * fingerprints from incompatible layouts never collide. Bump when a
 * path is renamed, removed, or changes meaning (adding a new field with
 * its default does not require a bump: fingerprints legitimately change
 * because the identity set grew).
 */
constexpr int config_schema_version = 1;

/** A typed view of one ExpConfig as a dotted-path config tree. */
class ConfigTree
{
  public:
    /**
     * Bind @p config. The tree holds a reference; the ExpConfig must
     * outlive it.
     */
    explicit ConfigTree(ExpConfig &config);

    ConfigTree(const ConfigTree &) = delete;
    ConfigTree &operator=(const ConfigTree &) = delete;

    ExpConfig &config() { return config_; }
    const ExpConfig &config() const { return config_; }

    // --- field access --------------------------------------------------

    /** All bound dotted paths, in declaration (serialization) order. */
    std::vector<std::string> paths() const;

    bool has(const std::string &path) const;

    /** Canonical textual value of @p path; fatal() on unknown path. */
    std::string get(const std::string &path) const;

    /**
     * Parse @p value and assign it to @p path. Returns "" on success,
     * else the reason (an unknown path names the nearest match; a
     * malformed or out-of-range value names the path and the value),
     * leaving the field unchanged.
     */
    std::string trySet(const std::string &path, const std::string &value);

    /** trySet(), fatal on error (the CLI's entry point). */
    void set(const std::string &path, const std::string &value);

    /** trySet() of one "path=value" assignment. */
    std::string tryApplyOverride(const std::string &assignment);

    /** Apply one "--set" assignment "path=value"; fatal on error. */
    void applyOverride(const std::string &assignment);

    /** Nearest bound path to @p path by edit distance ("" if none). */
    std::string suggest(const std::string &path) const;

    /** One-line help text for @p path; fatal() on unknown path. */
    std::string help(const std::string &path) const;

    // --- JSON ----------------------------------------------------------

    /** Write the full tree as nested JSON objects at @p w's position. */
    void save(JsonWriter &w) const;

    /** Serialize as a complete JSON document. */
    std::string saveString() const;

    void saveFile(const std::string &path) const;

    /**
     * Assign every leaf present in @p root (a nested object tree).
     * Unknown keys are fatal with a suggestion; absent fields keep
     * their current values, so a config file only needs the deltas.
     */
    void load(const JsonValue &root);

    void loadString(const std::string &text, const std::string &where = "");

    void loadFile(const std::string &path);

    // --- identity -------------------------------------------------------

    /**
     * Canonical form: the schema version followed by "path=value" lines
     * for every identity field, in a fixed order. Equal canonical forms
     * iff two configs describe the same simulation.
     */
    std::string canonical() const;

    /** SplitMix64 chain over canonical(). */
    std::uint64_t fingerprint() const;

    /** fingerprint() as a fixed-width hex string (the configTag form). */
    std::string fingerprintHex() const;

    /**
     * Warm-phase canonical form: like canonical(), but restricted to
     * identity fields that can influence the FAME *warm-up* phase.
     * Measurement-only knobs (fame.min_repetitions, fame.maiv) and the
     * master seed are excluded, and so are a job's priorities (never
     * config fields in the first place): under the canonical-warm
     * protocol every priority pair of a mix warms identically, so every
     * pair maps to one warm fingerprint — and one checkpoint.
     */
    std::string warmCanonical() const;

    /** SplitMix64 chain over warmCanonical(). */
    std::uint64_t warmFingerprint() const;

    /** warmFingerprint() as a fixed-width hex string (the warmTag form). */
    std::string warmFingerprintHex() const;

    /**
     * Stamp config_.configTag with fingerprintHex() — and
     * config_.warmTag with warmFingerprintHex() — so jobs enumerated
     * from this config carry both fingerprints in their cache and
     * checkpoint keys.
     */
    void stampTag();

    /**
     * Range-check every field plus the cross-field struct checks:
     * "" when the config is sound, else the first reason.
     */
    std::string tryValidate() const;

    /** tryValidate(), fatal on error (the CLI's entry point). */
    void validate() const { fatalOn(tryValidate()); }

  private:
    /** How a field's text is written to (and checked in) JSON. */
    enum class JsonKind : std::uint8_t { Bool, Integer, Number, String };

    struct Field
    {
        std::string path;
        std::string help;
        bool identity = true;
        JsonKind kind = JsonKind::String;
        /** Canonical text of the bound value. */
        std::function<std::string()> get;
        /**
         * Parse, check and assign @p text. Returns "" on success, else
         * the reason, worded to follow "config key '<path>' ".
         */
        std::function<std::string(const std::string &text)> set;
    };

    void bindAll();
    const Field *findField(const std::string &path) const;
    const Field &requireField(const std::string &path) const;
    void loadObject(const JsonValue &node, const std::string &prefix);

    /** f.set(text), its error prefixed with the field's path. */
    static std::string assign(const Field &f, const std::string &text);

    /** @p header's schema line, then each (warm) identity path=value. */
    std::string identityLines(const char *header, bool warm) const;

    /**
     * Bind a bool, int, unsigned, u64 or double field whose values
     * must lie in [lo, hi] (bools pass false, true).
     */
    template <class T>
    void bind(std::string path, T &ref, std::type_identity_t<T> lo,
              std::type_identity_t<T> hi, const char *help,
              bool identity = true);

    /** Bind an enum whose values 0..N-1 are spelled @p names. */
    template <class E, std::size_t N>
    void bindEnum(const char *path, E &ref, const char *const (&names)[N],
                  const char *help);

    /**
     * Bind a trace path / trace fingerprint field pair. The path field
     * is execution-only (where the bytes live); assigning it reads the
     * trace header and derives the fingerprint field, which is the
     * identity the config fingerprint folds in. Assigning "" clears
     * both.
     */
    void bindTrace(const char *path_key, const char *fp_key,
                   std::string &path_ref, std::string &fp_ref,
                   const char *help);

    ExpConfig &config_;
    std::vector<Field> fields_;
};

/** Levenshtein edit distance (used for the nearest-path suggestion). */
std::size_t editDistance(const std::string &a, const std::string &b);

} // namespace p5

#endif // P5SIM_CONFIG_CONFIG_HH
