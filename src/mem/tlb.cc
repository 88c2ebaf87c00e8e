#include "mem/tlb.hh"

#include <bit>

#include "common/log.hh"

namespace p5 {

Tlb::Tlb(const TlbParams &params) : params_(params)
{
    if (params_.entries <= 0 || params_.assoc <= 0 ||
        params_.entries % params_.assoc != 0)
        fatal("tlb '%s': bad geometry", params_.name.c_str());
    if (params_.pageBytes == 0 ||
        (params_.pageBytes & (params_.pageBytes - 1)) != 0)
        fatal("tlb '%s': page size must be a power of two",
              params_.name.c_str());
    numSets_ = static_cast<std::uint64_t>(params_.entries / params_.assoc);
    if ((numSets_ & (numSets_ - 1)) != 0)
        fatal("tlb '%s': set count must be a power of two",
              params_.name.c_str());
    entries_.resize(static_cast<std::size_t>(params_.entries));
    // A power of two, so the shift equals the divide exactly.
    pageShift_ = std::countr_zero(params_.pageBytes);
}

std::uint64_t
Tlb::setIndex(std::uint64_t vpn) const
{
    return vpn & (numSets_ - 1);
}

TlbResult
Tlb::access(Addr addr)
{
    const std::uint64_t vpn = addr >> pageShift_;
    const std::uint64_t set = setIndex(vpn);
    Entry *base = &entries_[set * params_.assoc];

    for (int w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].vpn == vpn) {
            base[w].lastUse = ++useClock_;
            ++hits_;
            return {true, 0};
        }
    }

    // Miss: walk, then install over invalid/LRU.
    ++misses_;
    int victim = 0;
    for (int w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (base[w].lastUse < base[victim].lastUse)
            victim = w;
    }
    base[victim].valid = true;
    base[victim].vpn = vpn;
    base[victim].lastUse = ++useClock_;
    return {false, params_.walkLatency};
}

bool
Tlb::probe(Addr addr) const
{
    const std::uint64_t vpn = addr >> pageShift_;
    const std::uint64_t set = setIndex(vpn);
    const Entry *base = &entries_[set * params_.assoc];
    for (int w = 0; w < params_.assoc; ++w)
        if (base[w].valid && base[w].vpn == vpn)
            return true;
    return false;
}

void
Tlb::flushAll()
{
    for (auto &e : entries_)
        e.valid = false;
}

void
Tlb::registerStats(StatGroup &group) const
{
    group.registerCounter(params_.name + ".hits", &hits_);
    group.registerCounter(params_.name + ".misses", &misses_);
}

} // namespace p5
