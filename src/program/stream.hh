/**
 * @file
 * Rewindable per-thread instruction stream.
 *
 * The core's decode stage pulls dynamic instructions from an InstrStream.
 * On a branch mispredict or balancer flush the core rewinds the stream to
 * the sequence number following the last surviving instruction; because
 * sources are pure functions of the index, re-fetched instructions are
 * identical to the squashed ones.
 *
 * Fetch is memoized: the stream keeps an incremental cursor (phase,
 * iteration, body position) into the source's pre-decoded fetch table,
 * so the common-path fetch is a prototype copy plus the two pattern
 * evaluations — no per-fetch division back into source coordinates.
 * The stream captures pointers to the source's fetch table, pattern
 * tables and phase geometry at construction; only rewinds and seeks go
 * back to the source's locate() to re-derive the cursor.
 */

#ifndef P5SIM_PROGRAM_STREAM_HH
#define P5SIM_PROGRAM_STREAM_HH

#include "program/source.hh"

namespace p5 {

/** A thread's position in its (infinitely repeating) source. */
class InstrStream
{
  public:
    /** @param source must outlive the stream. */
    InstrStream(const InstrSource *source, ThreadId tid);

    /** Materialize the instruction at the current position and advance. */
    DynInstr
    fetch()
    {
        DynInstr di = materializeAtCursor();
        advance();
        return di;
    }

    /** Peek without advancing. */
    DynInstr
    peek() const
    {
        return materializeAtCursor();
    }

    /** Sequence number the next fetch() will return. */
    SeqNum nextSeq() const { return pos_; }

    /** Rewind so the next fetch() returns @p seq. @pre seq <= nextSeq. */
    void rewindTo(SeqNum seq);

    /**
     * Position the cursor at an arbitrary @p seq, forward or backward.
     * Checkpoint restore uses this to reproduce a saved stream position
     * on a freshly attached stream.
     */
    void seekTo(SeqNum seq);

    /** Completed source executions within the first @p seq instrs
     *  (captured divisor; commit-path safe). */
    std::uint64_t
    executionsAt(SeqNum seq) const
    {
        return seq / instrsPerExec_;
    }

    /** Dynamic instructions per FAME execution (captured). */
    std::uint64_t instrsPerExecution() const { return instrsPerExec_; }

    /** The source's InstrSource::periodInstrs() (captured). */
    std::uint64_t periodInstrs() const { return periodInstrs_; }

    ThreadId tid() const { return tid_; }

  private:
    /** Build the DynInstr at the cursor (no divisions, no advance). */
    DynInstr
    materializeAtCursor() const
    {
        const PredecodedInstr &ps = table_[flatIdx_];
        DynInstr di = ps.proto;
        di.tid = tid_;
        di.seq = pos_;

        // Dynamic occurrence count of this static instruction.
        const std::uint64_t k = exec_ * iterations_ + iter_;
        if (ps.memPattern >= 0)
            di.addr = memPats_[ps.memPattern].addressAt(k);
        if (ps.branchPattern >= 0)
            di.branchTaken = branchPats_[ps.branchPattern].directionAt(k);
        return di;
    }

    /** Step the cursor one instruction forward. */
    void advance();

    /** Re-derive the cursor for an arbitrary position (rewind path). */
    void reposition(SeqNum seq);

    /** Refresh the cached per-phase constants after a phase change. */
    void loadPhase();

    const InstrSource *source_;
    ThreadId tid_;
    SeqNum pos_ = 0;

    // Captured at construction: the source's tables and geometry, read
    // in place by fetch/advance.
    const PredecodedInstr *table_ = nullptr;
    const MemPattern *memPats_ = nullptr;
    const BranchPattern *branchPats_ = nullptr;
    const InstrSource::PhaseGeom *geom_ = nullptr;
    std::size_t numPhases_ = 0;
    std::uint64_t instrsPerExec_ = 0;
    std::uint64_t periodInstrs_ = 0;

    // Memoized decode cursor: invariant flatIdx_ ==
    // geom_[phase_].flatStart + bodyIdx_.
    std::uint64_t exec_ = 0;
    std::size_t phase_ = 0;
    std::uint64_t iter_ = 0;
    std::size_t bodyIdx_ = 0;
    std::size_t flatIdx_ = 0;
    std::size_t bodySize_ = 0;
    std::uint64_t iterations_ = 0;
};

} // namespace p5

#endif // P5SIM_PROGRAM_STREAM_HH
