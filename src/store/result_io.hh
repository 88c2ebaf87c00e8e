/**
 * @file
 * JSON round-trip for SimResult records stored in a ResultStore.
 *
 * The serialized form keeps only the raw integer measurements (cycle
 * and instruction counters) plus exactly-rendered doubles, so a result
 * read back from disk is bit-identical to the one the simulation
 * produced — derived values (avgIpc, avgExecTime) are recomputed from
 * the same integers and therefore agree to the last bit.
 *
 * A store file may have been truncated by a killed writer or
 * corrupted on disk. readSimResult() validates every member's presence
 * and kind and fatal()s on the first mismatch; the store catches that
 * error, quarantines the file and re-simulates.
 *
 * AllocMix results are not storable: they carry an unbounded per-
 * quantum log whose faithful round-trip would dominate the store, and
 * no batch producer re-reads them across processes today. storableKind
 * gates them out so the runner simply always executes them.
 */

#ifndef P5SIM_STORE_RESULT_IO_HH
#define P5SIM_STORE_RESULT_IO_HH

#include <string>

#include "common/json.hh"
#include "fame/sim_job.hh"

namespace p5 {

/** Stable textual tag of a job kind (part of the stored file). */
const char *simJobKindName(SimJobKind kind);

/** Reverse of simJobKindName(); false on unknown tags. */
bool simJobKindFromName(const std::string &name, SimJobKind &out);

/** True when results of @p kind can live in a ResultStore. */
bool storableKind(SimJobKind kind);

/** Emit @p result as one JSON object at the writer's position. */
void writeSimResult(JsonWriter &w, const SimResult &result);

/**
 * Reconstruct a SimResult from @p node. fatal() on any missing member,
 * kind mismatch or non-storable kind.
 */
SimResult readSimResult(const JsonValue &node);

} // namespace p5

#endif // P5SIM_STORE_RESULT_IO_HH
