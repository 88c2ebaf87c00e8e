#include "program/source.hh"

#include <numeric>

#include "common/log.hh"

namespace p5 {

namespace {

/** Beyond this many passes a period is treated as none. */
constexpr std::uint64_t max_period_passes = std::uint64_t{1} << 24;

/**
 * The least P such that P passes advance a k-indexed pattern with
 * cycle length @p cycle by whole cycles, for a slot whose phase runs
 * @p iterations times per pass: the k-th dynamic occurrence in pass e
 * is k = e * iterations + iter, so P * iterations must be a multiple
 * of cycle.
 */
std::uint64_t
passesFor(std::uint64_t cycle, std::uint64_t iterations)
{
    return cycle / std::gcd(cycle, iterations);
}

/**
 * The sequence's period in passes, or 0 when it has none: the lcm over
 * every (phase, pattern) use of passesFor(). A memory pattern's
 * addresses cycle after footprint / gcd(stride, footprint) accesses; a
 * periodic branch after its period; taken and not-taken branches do
 * not vary; a random branch never repeats.
 */
std::uint64_t
periodPasses(const std::vector<PredecodedInstr> &table,
             const std::vector<MemPattern> &mems,
             const std::vector<BranchPattern> &branches,
             const std::vector<InstrSource::PhaseGeom> &geom)
{
    std::uint64_t passes = 1;
    const auto fold = [&passes](std::uint64_t p) {
        passes = std::lcm(passes, p);
        if (passes > max_period_passes)
            passes = 0;
    };
    for (const InstrSource::PhaseGeom &g : geom) {
        for (std::size_t i = 0; i < g.bodySize && passes; ++i) {
            const PredecodedInstr &ps = table[g.flatStart + i];
            if (ps.memPattern >= 0) {
                const MemPattern &m =
                    mems[static_cast<std::size_t>(ps.memPattern)];
                const std::uint64_t cycle =
                    m.footprint / std::gcd(m.stride, m.footprint);
                fold(passesFor(cycle, g.iterations));
            }
            if (ps.branchPattern >= 0) {
                const BranchPattern &b =
                    branches[static_cast<std::size_t>(ps.branchPattern)];
                if (b.kind == BranchKind::Random)
                    return 0;
                if (b.kind == BranchKind::Periodic && b.period > 0)
                    fold(passesFor(b.period, g.iterations));
            }
        }
    }
    return passes;
}

} // namespace

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
    periodInstrs_ = periodPasses(fetchTable_, memPatterns_,
                                 branchPatterns_, geom_) *
                    passLength_;
    if (periodInstrs_ % instrsPerExec_ != 0)
        periodInstrs_ = std::lcm(periodInstrs_, instrsPerExec_);
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
