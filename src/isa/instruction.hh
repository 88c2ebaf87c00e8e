/**
 * @file
 * Dynamic instruction record.
 *
 * A DynInstr is one in-flight instance of a static instruction, carrying
 * the concrete address / branch direction computed by the instruction
 * stream plus the pipeline bookkeeping the core needs.
 */

#ifndef P5SIM_ISA_INSTRUCTION_HH
#define P5SIM_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/static_instr.hh"

namespace p5 {

/** Lifecycle of an in-flight instruction inside the core. */
enum class InstrPhase : std::uint8_t
{
    Dispatched, ///< in the GCT, waiting for operands / issue
    Issued,     ///< executing on a functional unit
    Finished    ///< result produced, waiting for in-order completion
};

/** One dynamic (in-flight) instruction. */
struct DynInstr
{
    /** Hardware thread the instruction belongs to. */
    ThreadId tid = 0;

    /** Global per-thread dynamic index (also the stream position). */
    SeqNum seq = 0;

    OpClass op = OpClass::Nop;
    RegIndex dst = invalid_reg;
    RegIndex src0 = invalid_reg;
    RegIndex src1 = invalid_reg;

    /** Effective address for loads/stores. */
    Addr addr = 0;

    /** Branch: actual direction from the program's pattern. */
    bool branchTaken = false;

    /** Branch: direction the BHT predicted at decode. */
    bool branchPredictedTaken = false;

    /** PrioNop payload: the "X" of "or X,X,X". */
    int prioNopReg = 0;

    /** Synthetic PC of the static instruction (BHT index for branches). */
    Addr pc = 0;

    /** Cycle the instruction's result becomes available (valid once
     *  Issued). */
    Cycle completeCycle = never_cycle;

    bool isLoad() const { return op == OpClass::Load; }
    bool isStore() const { return op == OpClass::Store; }
    bool isBranch() const { return op == OpClass::Branch; }
    bool
    mispredicted() const
    {
        return isBranch() && branchTaken != branchPredictedTaken;
    }

    /** Debug rendering, e.g. "t0#42 Load r5<-r3 @0x1000". */
    std::string toString() const;
};

/**
 * One slot of a program's pre-decoded fetch table.
 *
 * Programs are pure functions of the dynamic index, so everything a
 * fetch derives from the static instruction — op, registers, PC, which
 * pattern produces the address / branch direction — is decoded once
 * per program into this template. A fetch then copies the prototype
 * and fills in only the truly dynamic fields (tid, seq, the pattern
 * outputs), instead of re-deriving the whole DynInstr every time (and
 * again on every re-fetch after a squash).
 */
struct PredecodedInstr
{
    /** Prototype with the static fields set; dynamic fields zeroed. */
    DynInstr proto;

    /** Memory-pattern id for loads/stores, -1 otherwise. */
    std::int32_t memPattern = -1;

    /** Branch-pattern id for branches, -1 otherwise. */
    std::int32_t branchPattern = -1;
};

} // namespace p5

#endif // P5SIM_ISA_INSTRUCTION_HH
