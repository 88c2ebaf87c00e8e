/**
 * @file
 * Checkpoint container format and on-disk checkpoint store.
 *
 * A Checkpoint is a warmed core's serialized architectural state plus
 * the identity it was warmed under: the canonical *warm key* (the
 * priority- and measurement-free slice of a simulation's identity, see
 * ckpt_manager.hh) and its 16-hex-digit fingerprint. All 36 priority
 * pairs of one pair-mix share one warm key, which is the whole point —
 * one warm-up amortizes across the pair matrix.
 *
 * On disk a checkpoint is one file per fingerprint in an ArtifactArea
 * (common/artifact.hh, DESIGN §12), the primitive the ResultStore is
 * built on too:
 *
 *     <dir>/<fp[0:2]>/<fp>-ckpt-v<version>.bin
 *
 * The file is one frame: a compact JSON header line (magic, versions,
 * fingerprint, warm cycles, byte count, checksum, the full warm key),
 * '\n', then the exact CkptWriter stream. Every invalid file —
 * truncated, corrupt, checksum or version mismatch, foreign warm key —
 * is quarantined to "<name>.bad" and treated as a miss. A
 * ckpt_meta.json at the root pins the format and config schema
 * versions. An area written under another config schema is fatal to
 * open. An area pinned at another format is a superseded cache: it is
 * re-pinned to this binary's format, its old files (named by their
 * version) miss, every pair-mix re-warms, and store-gc reclaims them.
 */

#ifndef P5SIM_CKPT_CKPT_HH
#define P5SIM_CKPT_CKPT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/artifact.hh"
#include "common/types.hh"
#include "config/config.hh"

namespace p5 {

/** Version of the checkpoint container + state stream layout. */
constexpr int ckpt_format_version = 3;

/** A warmed core's serialized state plus its warm identity. */
struct Checkpoint
{
    /** Canonical warm-phase identity text (see SimJob::warmKey()). */
    std::string warmKey;

    /** 16-hex-digit content address: hash of warmKey. */
    std::string fingerprint;

    /** Core cycle at snapshot time (observability / reporting only). */
    Cycle warmCycles = 0;

    /** The CkptWriter stream from SmtCore::saveState(). */
    std::vector<std::uint8_t> state;
};

/** 16-hex-digit content address of a warm key. */
std::string ckptFingerprintHex(const std::string &warm_key);

/** Persistent checkpoint area (usually "<result-store>/ckpt"). */
class CkptStore
{
  public:
    /**
     * Open @p dir, creating it, its missing parents and ckpt_meta.json
     * when absent. Fatal when an existing area was written under a
     * different config schema version; an area pinned at a different
     * checkpoint format is re-pinned to this one.
     */
    explicit CkptStore(std::string dir,
                       int schema_version = config_schema_version);

    CkptStore(const CkptStore &) = delete;
    CkptStore &operator=(const CkptStore &) = delete;

    const std::string &dir() const { return area_.dir(); }

    /** File naming of this binary's checkpoints (see store-gc). */
    static ArtifactLayout layout();

    /** Absolute path a fingerprint maps to under this area. */
    std::string pathFor(const std::string &fp_hex) const;

    /**
     * Validated read of the checkpoint for @p warm_key. A missing file
     * is a plain miss; a file that fails any validation (header,
     * version, checksum, byte count, embedded warm key) is quarantined
     * to .bad and reported as a miss.
     */
    bool load(const std::string &warm_key, Checkpoint &out);

    /** Publish @p ckpt atomically under its fingerprint. */
    void put(const Checkpoint &ckpt);

    std::uint64_t hits() const { return area_.hits(); }
    std::uint64_t misses() const { return area_.misses(); }
    std::uint64_t writes() const { return area_.writes(); }
    std::uint64_t quarantined() const { return area_.quarantined(); }

  private:
    ArtifactArea area_;
};

} // namespace p5

#endif // P5SIM_CKPT_CKPT_HH
