#include "program/builder.hh"

#include "common/log.hh"

namespace p5 {

int
ProgramBuilder::memPattern(Addr base, std::uint64_t stride,
                           std::uint64_t footprint, std::uint64_t start)
{
    if (footprint == 0)
        fatal("program '%s': zero-size memory footprint", name_.c_str());
    MemPattern p;
    p.base = base;
    p.stride = stride;
    p.footprint = footprint;
    p.start = start;
    memPatterns_.push_back(p);
    return static_cast<int>(memPatterns_.size()) - 1;
}

int
ProgramBuilder::branchPattern(const BranchPattern &p)
{
    branchPatterns_.push_back(p);
    return static_cast<int>(branchPatterns_.size()) - 1;
}

int
ProgramBuilder::alwaysTaken()
{
    BranchPattern p;
    p.kind = BranchKind::AlwaysTaken;
    return branchPattern(p);
}

int
ProgramBuilder::neverTaken()
{
    BranchPattern p;
    p.kind = BranchKind::NeverTaken;
    return branchPattern(p);
}

int
ProgramBuilder::randomBranch(double taken_prob, std::uint64_t seed)
{
    BranchPattern p;
    p.kind = BranchKind::Random;
    p.takenProb = taken_prob;
    p.seed = seed;
    return branchPattern(p);
}

void
ProgramBuilder::beginPhase(std::uint64_t iterations)
{
    ProgramPhase phase;
    phase.iterations = iterations;
    phases_.push_back(std::move(phase));
}

void
ProgramBuilder::requirePhase() const
{
    if (phases_.empty())
        fatal("program '%s': instruction appended before beginPhase()",
              name_.c_str());
}

void
ProgramBuilder::append(const StaticInstr &si)
{
    requirePhase();
    phases_.back().body.push_back(si);
}

ProgramBuilder &
ProgramBuilder::intAlu(RegIndex dst, RegIndex s0, RegIndex s1)
{
    StaticInstr si;
    si.op = OpClass::IntAlu;
    si.dst = dst;
    si.src0 = s0;
    si.src1 = s1;
    append(si);
    return *this;
}

ProgramBuilder &
ProgramBuilder::intMul(RegIndex dst, RegIndex s0, RegIndex s1)
{
    StaticInstr si;
    si.op = OpClass::IntMul;
    si.dst = dst;
    si.src0 = s0;
    si.src1 = s1;
    append(si);
    return *this;
}

ProgramBuilder &
ProgramBuilder::intDiv(RegIndex dst, RegIndex s0, RegIndex s1)
{
    StaticInstr si;
    si.op = OpClass::IntDiv;
    si.dst = dst;
    si.src0 = s0;
    si.src1 = s1;
    append(si);
    return *this;
}

ProgramBuilder &
ProgramBuilder::fpAlu(RegIndex dst, RegIndex s0, RegIndex s1)
{
    StaticInstr si;
    si.op = OpClass::FpAlu;
    si.dst = dst;
    si.src0 = s0;
    si.src1 = s1;
    append(si);
    return *this;
}

ProgramBuilder &
ProgramBuilder::fpMul(RegIndex dst, RegIndex s0, RegIndex s1)
{
    StaticInstr si;
    si.op = OpClass::FpMul;
    si.dst = dst;
    si.src0 = s0;
    si.src1 = s1;
    append(si);
    return *this;
}

ProgramBuilder &
ProgramBuilder::load(RegIndex dst, int mem_pattern, RegIndex addr_src)
{
    if (mem_pattern < 0 ||
        static_cast<std::size_t>(mem_pattern) >= memPatterns_.size())
        fatal("program '%s': load with bad pattern id %d", name_.c_str(),
              mem_pattern);
    StaticInstr si;
    si.op = OpClass::Load;
    si.dst = dst;
    si.src0 = addr_src;
    si.memPattern = mem_pattern;
    append(si);
    return *this;
}

ProgramBuilder &
ProgramBuilder::store(int mem_pattern, RegIndex value_src,
                      RegIndex addr_src)
{
    if (mem_pattern < 0 ||
        static_cast<std::size_t>(mem_pattern) >= memPatterns_.size())
        fatal("program '%s': store with bad pattern id %d", name_.c_str(),
              mem_pattern);
    StaticInstr si;
    si.op = OpClass::Store;
    si.src0 = value_src;
    si.src1 = addr_src;
    si.memPattern = mem_pattern;
    append(si);
    return *this;
}

ProgramBuilder &
ProgramBuilder::branch(int branch_pattern, RegIndex cond_src)
{
    if (branch_pattern < 0 ||
        static_cast<std::size_t>(branch_pattern) >= branchPatterns_.size())
        fatal("program '%s': branch with bad pattern id %d", name_.c_str(),
              branch_pattern);
    StaticInstr si;
    si.op = OpClass::Branch;
    si.src0 = cond_src;
    si.branchPattern = branch_pattern;
    append(si);
    return *this;
}

ProgramBuilder &
ProgramBuilder::nop()
{
    StaticInstr si;
    si.op = OpClass::Nop;
    append(si);
    return *this;
}

ProgramBuilder &
ProgramBuilder::prioNop(int or_reg)
{
    StaticInstr si;
    si.op = OpClass::PrioNop;
    si.prioNopReg = or_reg;
    append(si);
    return *this;
}

SyntheticProgram
ProgramBuilder::build()
{
    if (built_)
        panic("ProgramBuilder for '%s' reused after build()",
              name_.c_str());
    built_ = true;
    return SyntheticProgram(std::move(name_), phases_,
                            std::move(memPatterns_),
                            std::move(branchPatterns_));
}

} // namespace p5
