/**
 * @file
 * Static instruction descriptor.
 *
 * A synthetic program's loop body is a sequence of StaticInstr. Each
 * dynamic execution of a static instruction is materialized into a DynInstr
 * by the instruction stream (program/stream.hh), which computes concrete
 * memory addresses and branch directions from the program's patterns.
 */

#ifndef P5SIM_ISA_STATIC_INSTR_HH
#define P5SIM_ISA_STATIC_INSTR_HH

#include "common/types.hh"
#include "isa/op_class.hh"

namespace p5 {

/** Sentinel for "no pattern attached". */
constexpr int invalid_pattern = -1;

/**
 * One static instruction of a synthetic program body.
 *
 * Register indices live in a flat per-thread architectural space
 * (0..num_arch_regs-1); integer and FP programs simply use disjoint ranges
 * by convention. Dependences are tracked through these indices by the
 * rename stage.
 */
struct StaticInstr
{
    OpClass op = OpClass::Nop;

    /** Destination register, or invalid_reg. */
    RegIndex dst = invalid_reg;

    /** Source registers, invalid_reg when unused. */
    RegIndex src0 = invalid_reg;
    RegIndex src1 = invalid_reg;

    /** For Load/Store: index into the program's memory patterns. */
    int memPattern = invalid_pattern;

    /** For Branch: index into the program's branch patterns. */
    int branchPattern = invalid_pattern;

    /**
     * For PrioNop: the "X" of "or X,X,X" (Table 1), selecting the
     * requested priority level.
     */
    int prioNopReg = 0;
};

/** Number of architectural registers per thread in the flat space. */
constexpr int num_arch_regs = 96;

} // namespace p5

#endif // P5SIM_ISA_STATIC_INSTR_HH
