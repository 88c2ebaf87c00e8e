/**
 * @file
 * Synthetic program model.
 *
 * A SyntheticProgram is a sequence of phases, each of which iterates a
 * fixed loop body a fixed number of times. One pass through all phases is
 * an "execution" in the FAME sense (one repetition of the benchmark); the
 * program restarts from the first phase afterwards and runs indefinitely.
 *
 * The dynamic instruction at any global index is a pure function of that
 * index, which makes streams rewindable after squashes and keeps the whole
 * simulation deterministic.
 */

#ifndef P5SIM_PROGRAM_PROGRAM_HH
#define P5SIM_PROGRAM_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "isa/static_instr.hh"
#include "program/pattern.hh"
#include "program/source.hh"

namespace p5 {

/** One phase: a loop body executed @c iterations times. */
struct ProgramPhase
{
    std::vector<StaticInstr> body;
    std::uint64_t iterations = 1;
};

/**
 * A complete synthetic program: an InstrSource whose fetch table,
 * pattern tables and phase geometry are decoded from @c phases.
 */
class SyntheticProgram : public InstrSource
{
  public:
    SyntheticProgram(std::string name,
                     const std::vector<ProgramPhase> &phases,
                     std::vector<MemPattern> mem_patterns,
                     std::vector<BranchPattern> branch_patterns);

    /** Number of complete executions contained in @p seq instructions. */
    std::uint64_t
    executionsAt(SeqNum seq) const
    {
        return seq / instrsPerExecution();
    }

    /**
     * Materialize the dynamic instruction at global index @p seq for
     * thread @p tid: the random-access reference InstrStream's
     * incremental fetch is tested against.
     *
     * The result is deterministic: addresses come from the memory
     * patterns, branch directions from the branch patterns, both keyed by
     * the per-static-instruction dynamic occurrence count.
     */
    DynInstr materialize(SeqNum seq, ThreadId tid) const;

    /** Instruction-mix census over one execution (per op class). */
    std::vector<std::uint64_t> opClassMix() const;
};

} // namespace p5

#endif // P5SIM_PROGRAM_PROGRAM_HH
