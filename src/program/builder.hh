/**
 * @file
 * Fluent builder for synthetic programs.
 *
 * The micro-benchmark and workload factories use this to express loop
 * bodies close to how the paper's Table 2 writes them, e.g.:
 *
 * @code
 * ProgramBuilder b("cpu_int");
 * b.beginPhase(1000);
 * for (int x = 0; x < 54; ++x) {
 *     b.intMul(t0, iter, iter);  // iter * (iter - 1)
 *     b.intMul(t1, xreg, iter);  // xi * iter
 *     b.intAlu(acc, acc, t0);    // a += ... (dependence chain)
 * }
 * b.branch(back_edge);
 * SyntheticProgram p = b.build();
 * @endcode
 */

#ifndef P5SIM_PROGRAM_BUILDER_HH
#define P5SIM_PROGRAM_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "program/program.hh"

namespace p5 {

/** Incremental construction of a SyntheticProgram. */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name) : name_(std::move(name)) {}

    /**
     * Register a memory pattern; returns its id for load()/store().
     *
     * @param base region base address (regions of different patterns
     *        should not overlap unless sharing is intended).
     * @param stride byte distance between consecutive accesses.
     * @param footprint working-set size in bytes (accesses wrap).
     */
    int memPattern(Addr base, std::uint64_t stride,
                   std::uint64_t footprint, std::uint64_t start = 0);

    /** Register a branch pattern; returns its id for branch(). */
    int branchPattern(const BranchPattern &p);
    int alwaysTaken();
    int neverTaken();
    int randomBranch(double taken_prob, std::uint64_t seed);

    /**
     * Open a new phase executing the instructions appended after this
     * call @p iterations times. Every program needs at least one phase.
     */
    void beginPhase(std::uint64_t iterations);

    /** Append a generic instruction to the current phase body. */
    void append(const StaticInstr &si);

    // Convenience emitters. All return *this for chaining.
    ProgramBuilder &intAlu(RegIndex dst, RegIndex s0,
                           RegIndex s1 = invalid_reg);
    ProgramBuilder &intMul(RegIndex dst, RegIndex s0,
                           RegIndex s1 = invalid_reg);
    ProgramBuilder &intDiv(RegIndex dst, RegIndex s0,
                           RegIndex s1 = invalid_reg);
    ProgramBuilder &fpAlu(RegIndex dst, RegIndex s0,
                          RegIndex s1 = invalid_reg);
    ProgramBuilder &fpMul(RegIndex dst, RegIndex s0,
                          RegIndex s1 = invalid_reg);
    ProgramBuilder &load(RegIndex dst, int mem_pattern,
                         RegIndex addr_src = invalid_reg);
    ProgramBuilder &store(int mem_pattern, RegIndex value_src,
                          RegIndex addr_src = invalid_reg);
    ProgramBuilder &branch(int branch_pattern,
                           RegIndex cond_src = invalid_reg);
    ProgramBuilder &nop();
    ProgramBuilder &prioNop(int or_reg);

    /** Finalize. The builder must not be reused afterwards. */
    SyntheticProgram build();

  private:
    void requirePhase() const;

    std::string name_;
    std::vector<ProgramPhase> phases_;
    std::vector<MemPattern> memPatterns_;
    std::vector<BranchPattern> branchPatterns_;
    bool built_ = false;
};

} // namespace p5

#endif // P5SIM_PROGRAM_BUILDER_HH
