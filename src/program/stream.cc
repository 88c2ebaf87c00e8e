#include "program/stream.hh"

#include "common/log.hh"

namespace p5 {

InstrStream::InstrStream(const InstrSource *source, ThreadId tid)
    : source_(source), tid_(tid)
{
    if (!source_)
        panic("InstrStream constructed with null source");
    table_ = source_->fetchTable().data();
    memPats_ = source_->memPatterns().data();
    branchPats_ = source_->branchPatterns().data();
    geom_ = source_->phaseGeometry().data();
    numPhases_ = source_->phaseGeometry().size();
    instrsPerExec_ = source_->instrsPerExecution();
    periodInstrs_ = source_->periodInstrs();
    reposition(0);
}

void
InstrStream::advance()
{
    ++pos_;
    ++flatIdx_;
    if (++bodyIdx_ != bodySize_)
        return;
    bodyIdx_ = 0;
    flatIdx_ -= bodySize_;
    if (++iter_ != iterations_)
        return;
    iter_ = 0;
    flatIdx_ += bodySize_;
    if (++phase_ == numPhases_) {
        phase_ = 0;
        flatIdx_ = 0;
        ++exec_;
    }
    loadPhase();
}

void
InstrStream::loadPhase()
{
    bodySize_ = geom_[phase_].bodySize;
    iterations_ = geom_[phase_].iterations;
}

void
InstrStream::reposition(SeqNum seq)
{
    const InstrSource::Cursor cur = source_->locate(seq);
    pos_ = seq;
    exec_ = cur.exec;
    phase_ = cur.phase;
    iter_ = cur.iter;
    bodyIdx_ = cur.bodyIdx;
    flatIdx_ = geom_[phase_].flatStart + bodyIdx_;
    loadPhase();
}

void
InstrStream::seekTo(SeqNum seq)
{
    reposition(seq);
}

void
InstrStream::rewindTo(SeqNum seq)
{
    if (seq > pos_)
        panic("InstrStream rewind forward: %llu > %llu",
              static_cast<unsigned long long>(seq),
              static_cast<unsigned long long>(pos_));
    reposition(seq);
}

} // namespace p5
