#include "program/source.hh"

#include "common/log.hh"

namespace p5 {

InstrSource::InstrSource(std::string name,
                         std::uint64_t instrs_per_execution,
                         std::vector<PredecodedInstr> fetch_table,
                         std::vector<MemPattern> mem_patterns,
                         std::vector<BranchPattern> branch_patterns,
                         std::vector<PhaseGeom> geometry)
    : name_(std::move(name)), instrsPerExec_(instrs_per_execution),
      fetchTable_(std::move(fetch_table)),
      memPatterns_(std::move(mem_patterns)),
      branchPatterns_(std::move(branch_patterns)),
      geom_(std::move(geometry))
{
    if (geom_.empty() || instrsPerExec_ == 0)
        panic("instruction source '%s' has no instructions",
              name_.c_str());
    for (const PhaseGeom &g : geom_) {
        if (g.bodySize == 0 || g.iterations == 0 ||
            g.flatStart + g.bodySize > fetchTable_.size())
            panic("instruction source '%s' has a malformed phase",
                  name_.c_str());
        passLength_ += g.bodySize * g.iterations;
    }
}

InstrSource::Cursor
InstrSource::locate(SeqNum seq) const
{
    Cursor cur;
    cur.exec = seq / passLength_;
    std::uint64_t in_phase = seq % passLength_;

    // Find the phase containing the remainder (few phases: linear scan).
    for (;;) {
        const PhaseGeom &g = geom_[cur.phase];
        const std::uint64_t len = g.bodySize * g.iterations;
        if (in_phase < len)
            break;
        in_phase -= len;
        ++cur.phase;
    }
    const std::size_t body = geom_[cur.phase].bodySize;
    cur.iter = in_phase / body;
    cur.bodyIdx = static_cast<std::size_t>(in_phase % body);
    return cur;
}

} // namespace p5
