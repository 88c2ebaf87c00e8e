/**
 * @file
 * Scheduler configuration: the allocation policy family and the
 * quantum at which the allocator re-decides thread-to-core placement.
 */

#ifndef P5SIM_SCHED_SCHED_PARAMS_HH
#define P5SIM_SCHED_SCHED_PARAMS_HH

#include <string>

#include "common/types.hh"

#include "common/annotate.hh"

namespace p5 {

/** Thread-to-core allocation policies (SYNPA family, PAPERS.md). */
enum class AllocPolicy
{
    /**
     * Static: runnable thread i is pinned to core i/2, hardware
     * thread i%2, forever. Reproduces the pre-scheduler chip
     * bit-identically (no migrations, no re-pairing).
     */
    Pinned,

    /** Re-pair uniformly at random every quantum (deterministic RNG). */
    Random,

    /**
     * SYNPA-style symbiosis predictor: score candidate pairings from
     * per-thread counter history (committed IPC, L2 misses, GCT
     * occupancy) and greedily keep the best-scoring pairs.
     */
    Symbiosis,
};

/** Canonical name ("pinned", "random", "symbiosis"). */
const char *allocPolicyName(AllocPolicy policy);

/** Reverse lookup; fatal() on unknown names. */
AllocPolicy allocPolicyFromName(const std::string &name);

/** Scheduler knobs (bound to the sched.* config paths). */
struct P5_CONFIG_STRUCT SchedParams
{
    AllocPolicy policy = AllocPolicy::Pinned;

    /** Cycles between allocation decisions. */
    Cycle quantum = 20000;

    /** Per-thread counter samples the allocator may look back over. */
    int historyQuanta = 4;

    /** fatal() unless every value is in range. */
    void validate() const;
};

} // namespace p5

#endif // P5SIM_SCHED_SCHED_PARAMS_HH
