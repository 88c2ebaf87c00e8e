/**
 * @file
 * Compact replayable instruction traces.
 *
 * A trace file captures the dynamic instruction sequence of an
 * InstrSource so it can be replayed later — by a different process, a
 * different build, or a frontend that never links the generator. A
 * trace file is one frame of the artifact primitive (common/artifact.hh,
 * DESIGN §12), the format checkpoints use too: a compact JSON header
 * line (magic, version, name, instruction counts, payload byte count,
 * payload checksum), '\n', then a delta+varint encoded record stream.
 * `head -1` inspects any trace; publication is atomic, and an invalid
 * file can be quarantined to "<name>.bad" like a corrupt store file.
 *
 * Per record the payload stores: the op class and branch outcome in one
 * byte, the destination register, each source as either a small
 * backward *distance* to its producer record (dataflow, not register
 * names — the common case after a producer) or an escaped literal
 * register for live-ins, the PrioNop payload where applicable, and the
 * PC and memory address as zigzag deltas against the previous record.
 *
 * Replay wraps modulo the recorded span: a trace of E executions
 * repeats its E*N records forever, which keeps FAME repetition
 * accounting exact (the generator's per-execution instruction count N
 * travels in the header) as long as runs don't outlive the recording —
 * dump enough executions for the measurement at hand.
 */

#ifndef P5SIM_PROGRAM_TRACE_HH
#define P5SIM_PROGRAM_TRACE_HH

#include <memory>

#include "program/source.hh"

namespace p5 {

/** Version of the trace container + record stream layout. */
constexpr int trace_format_version = 1;

/** Magic the header line must carry. */
constexpr const char *trace_magic = "p5sim-trace";

/** Parsed trace header (the one-line JSON prefix of a trace file). */
struct TraceHeader
{
    std::string name;
    std::uint64_t instrsPerExecution = 0;
    std::uint64_t records = 0;
    std::uint64_t executions = 0;
    std::uint64_t bytes = 0;    ///< payload size after the header line
    std::uint64_t checksum = 0; ///< payload digest (hashBytes)

    /**
     * 16-hex-digit content identity of the trace: a hash of the name,
     * the counts and the payload checksum. Folded into ProgramSpec keys
     * and the config fingerprint so a trace-driven point can never
     * alias a synthetic one (or a different trace) in the result or
     * checkpoint stores.
     */
    std::string fingerprint() const;
};

/**
 * An InstrSource that replays a loaded trace: one phase spanning all
 * records once, so replay wraps there. Every slot carries its address
 * and branch direction in the prototype, so there are no patterns.
 */
class TraceProgram : public InstrSource
{
  public:
    TraceProgram(TraceHeader header,
                 std::vector<PredecodedInstr> table);

    const TraceHeader &header() const { return header_; }

    /** Dynamic records in the recorded span (= table size). */
    std::uint64_t records() const { return header_.records; }

  private:
    TraceHeader header_;
};

/**
 * Record @p executions executions of @p source into @p path
 * (atomically). fatal() on I/O failure or a zero request.
 */
void dumpTrace(const InstrSource &source, std::uint64_t executions,
               const std::string &path);

/**
 * Header-only read (cheap: first line, no payload decode or checksum).
 * fatal() with the reason on any validation failure.
 */
TraceHeader readTraceHeader(const std::string &path);

/**
 * Full validated load: header, payload size, checksum, and per-record
 * bounds (op class, register indices, dependence distances pointing at
 * real producers). fatal() with the reason on any failure.
 */
std::unique_ptr<TraceProgram> loadTrace(const std::string &path);

/**
 * Quarantine a corrupt trace to "<path>.bad" (quarantineFile); returns
 * the new path. warn()s; fatal() when the rename fails.
 */
std::string quarantineTrace(const std::string &path);

} // namespace p5

#endif // P5SIM_PROGRAM_TRACE_HH
