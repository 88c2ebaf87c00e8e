#include "program/program.hh"

#include "common/log.hh"
#include "common/rng.hh"

namespace p5 {

namespace {

/**
 * Validate @p phases and decode them into the source data: PCs, the
 * pre-decoded fetch table (every field of a DynInstr that does not
 * depend on the dynamic occurrence count, decoded once) and the phase
 * geometry.
 */
InstrSource
decodeProgram(std::string name, const std::vector<ProgramPhase> &phases,
              std::vector<MemPattern> mem_patterns,
              std::vector<BranchPattern> branch_patterns)
{
    if (phases.empty())
        fatal("program '%s' has no phases", name.c_str());

    // Assign synthetic PCs: a name-derived base keeps distinct programs
    // in distinct BHT regions, matching distinct processes on real HW.
    Addr pc = hashMix(std::hash<std::string>{}(name)) & ~Addr{0xffff};

    std::vector<PredecodedInstr> table;
    std::vector<InstrSource::PhaseGeom> geom;
    std::uint64_t instrs_per_exec = 0;
    for (const auto &phase : phases) {
        if (phase.body.empty())
            fatal("program '%s' has an empty phase body", name.c_str());
        if (phase.iterations == 0)
            fatal("program '%s' has a zero-iteration phase",
                  name.c_str());
        geom.push_back({phase.body.size(), phase.iterations, table.size()});
        for (const auto &si : phase.body) {
            PredecodedInstr ps;
            ps.proto.op = si.op;
            ps.proto.dst = si.dst;
            ps.proto.src0 = si.src0;
            ps.proto.src1 = si.src1;
            ps.proto.prioNopReg = si.prioNopReg;
            ps.proto.pc = pc;
            pc += 4;
            if (isMemOp(si.op)) {
                if (si.memPattern < 0 ||
                    static_cast<std::size_t>(si.memPattern) >=
                        mem_patterns.size())
                    fatal("program '%s': bad mem pattern id %d",
                          name.c_str(), si.memPattern);
                ps.memPattern = si.memPattern;
            }
            if (si.op == OpClass::Branch) {
                if (si.branchPattern < 0 ||
                    static_cast<std::size_t>(si.branchPattern) >=
                        branch_patterns.size())
                    fatal("program '%s': bad branch pattern id %d",
                          name.c_str(), si.branchPattern);
                ps.branchPattern = si.branchPattern;
            }
            table.push_back(ps);
        }
        instrs_per_exec += phase.body.size() * phase.iterations;
    }
    return InstrSource(std::move(name), instrs_per_exec, std::move(table),
                       std::move(mem_patterns), std::move(branch_patterns),
                       std::move(geom));
}

} // namespace

SyntheticProgram::SyntheticProgram(std::string name,
                                   const std::vector<ProgramPhase> &phases,
                                   std::vector<MemPattern> mem_patterns,
                                   std::vector<BranchPattern>
                                       branch_patterns)
    : InstrSource(decodeProgram(std::move(name), phases,
                                std::move(mem_patterns),
                                std::move(branch_patterns)))
{
}

DynInstr
SyntheticProgram::materialize(SeqNum seq, ThreadId tid) const
{
    const Cursor cur = locate(seq);
    const PhaseGeom &g = phaseGeometry()[cur.phase];
    const PredecodedInstr &ps = fetchTable()[g.flatStart + cur.bodyIdx];

    // Dynamic occurrence count of this static instruction.
    const std::uint64_t k = cur.exec * g.iterations + cur.iter;

    DynInstr di = ps.proto;
    di.tid = tid;
    di.seq = seq;
    if (ps.memPattern >= 0)
        di.addr = memPatterns()[ps.memPattern].addressAt(k);
    if (ps.branchPattern >= 0)
        di.branchTaken = branchPatterns()[ps.branchPattern].directionAt(k);
    return di;
}

std::vector<std::uint64_t>
SyntheticProgram::opClassMix() const
{
    std::vector<std::uint64_t> mix(num_op_classes, 0);
    for (const PhaseGeom &g : phaseGeometry())
        for (std::size_t i = 0; i < g.bodySize; ++i)
            mix[static_cast<int>(fetchTable()[g.flatStart + i].proto.op)] +=
                g.iterations;
    return mix;
}

} // namespace p5
