/**
 * @file
 * The instruction source behind InstrStream.
 *
 * An InstrSource is the data of one software thread's infinite,
 * rewindable dynamic instruction sequence: a pre-decoded fetch table,
 * the memory and branch pattern tables its slots index, and the phase
 * geometry that orders the table into loop iterations. The synthetic
 * generator (SyntheticProgram) and a recorded trace replayed from disk
 * (TraceProgram) are constructors that fill in this data; nothing here
 * is virtual apart from the destructor. One locate() maps a global
 * index to a position for both: InstrStream captures the tables at
 * construction and calls locate() only on rewinds and seeks.
 */

#ifndef P5SIM_PROGRAM_SOURCE_HH
#define P5SIM_PROGRAM_SOURCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "program/pattern.hh"

namespace p5 {

/** A thread's dynamic instruction sequence, as data. */
class InstrSource
{
  public:
    /** Decomposition of a global index into source coordinates. */
    struct Cursor
    {
        std::uint64_t exec = 0;  ///< completed passes before seq
        std::size_t phase = 0;   ///< phase containing seq
        std::uint64_t iter = 0;  ///< loop iteration within the phase
        std::size_t bodyIdx = 0; ///< position within the loop body
    };

    /**
     * Shape of one phase: body length, iteration count and the phase's
     * offset into the flat fetch table. The stream's fetch/advance hot
     * path walks these values incrementally.
     */
    struct PhaseGeom
    {
        std::size_t bodySize = 0;
        std::uint64_t iterations = 0;
        std::size_t flatStart = 0;
    };

    /** @param geometry phase order, size >= 1, no empty phase. */
    InstrSource(std::string name, std::uint64_t instrs_per_execution,
                std::vector<PredecodedInstr> fetch_table,
                std::vector<MemPattern> mem_patterns,
                std::vector<BranchPattern> branch_patterns,
                std::vector<PhaseGeom> geometry);

    // Owners hold sources through std::unique_ptr<InstrSource>; the
    // explicit defaults keep a built program movable, not just copyable.
    virtual ~InstrSource() = default;
    InstrSource(const InstrSource &) = default;
    InstrSource(InstrSource &&) = default;
    InstrSource &operator=(const InstrSource &) = default;
    InstrSource &operator=(InstrSource &&) = default;

    const std::string &name() const { return name_; }

    /**
     * Dynamic instructions in one FAME execution (repetition). For a
     * trace this is the *generator's* per-execution count recorded in
     * the header, so replayed runs account repetitions identically.
     */
    std::uint64_t instrsPerExecution() const { return instrsPerExec_; }

    /** Pre-decoded fetch table, phase order (see PredecodedInstr). */
    const std::vector<PredecodedInstr> &fetchTable() const
    {
        return fetchTable_;
    }

    /** Memory patterns the fetch table's memPattern ids index (empty
     *  when every slot carries its address in the prototype). */
    const std::vector<MemPattern> &memPatterns() const
    {
        return memPatterns_;
    }

    /** Branch patterns the fetch table's branchPattern ids index. */
    const std::vector<BranchPattern> &branchPatterns() const
    {
        return branchPatterns_;
    }

    /** Per-phase geometry, phase order (size >= 1). */
    const std::vector<PhaseGeom> &phaseGeometry() const { return geom_; }

    /** Locate global index @p seq, where `exec` counts passes through
     *  every phase once (rewind/seek path; never called per fetch). */
    Cursor locate(SeqNum seq) const;

    /**
     * The least number of instructions after which the sequence
     * repeats exactly, apart from sequence numbers: the instruction at
     * seq + periodInstrs() equals the one at seq. A whole number of
     * passes, hence of executions. 0 when the sequence never repeats (a
     * BranchKind::Random pattern, or a period past 2^40 instructions).
     */
    std::uint64_t periodInstrs() const { return periodInstrs_; }

    /** periodInstrs() in executions (0: aperiodic). */
    std::uint64_t
    period() const
    {
        return periodInstrs_ / instrsPerExec_;
    }

  private:
    std::string name_;
    std::uint64_t instrsPerExec_;
    std::vector<PredecodedInstr> fetchTable_;
    std::vector<MemPattern> memPatterns_;
    std::vector<BranchPattern> branchPatterns_;
    std::vector<PhaseGeom> geom_;
    std::uint64_t passLength_ = 0; ///< instructions in all phases once
    std::uint64_t periodInstrs_ = 0;
};

} // namespace p5

#endif // P5SIM_PROGRAM_SOURCE_HH
