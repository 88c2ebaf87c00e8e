#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace p5 {

namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheParams &params) : params_(params)
{
    if (params_.sizeBytes == 0 || params_.assoc <= 0 ||
        params_.lineBytes <= 0)
        fatal("cache '%s': bad geometry", params_.name.c_str());
    if (!isPowerOfTwo(params_.lineBytes))
        fatal("cache '%s': line size must be a power of two",
              params_.name.c_str());
    std::uint64_t lines = params_.sizeBytes /
                          static_cast<std::uint64_t>(params_.lineBytes);
    if (lines == 0 || lines % params_.assoc != 0)
        fatal("cache '%s': size/assoc/line mismatch", params_.name.c_str());
    numSets_ = lines / params_.assoc;
    if (!isPowerOfTwo(numSets_))
        fatal("cache '%s': set count must be a power of two",
              params_.name.c_str());
    lines_.resize(lines);
    // Both are powers of two, so the shifts equal the divides exactly.
    lineShift_ =
        std::countr_zero(static_cast<std::uint64_t>(params_.lineBytes));
    tagShift_ = lineShift_ + std::countr_zero(numSets_);
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> tagShift_;
}

bool
Cache::lookup(Addr addr)
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * params_.assoc];
    for (int w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUse = ++useClock_;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *base = &lines_[set * params_.assoc];
    for (int w = 0; w < params_.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
Cache::insert(Addr addr)
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * params_.assoc];

    // Already present: refresh recency only.
    for (int w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUse = ++useClock_;
            return;
        }
    }

    // Prefer an invalid way, else the LRU way.
    int victim = 0;
    for (int w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (base[w].lastUse < base[victim].lastUse)
            victim = w;
    }
    if (base[victim].valid)
        ++evictions_;
    base[victim].valid = true;
    base[victim].tag = tag;
    base[victim].lastUse = ++useClock_;
    ++insertions_;
}

void
Cache::invalidate(Addr addr)
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * params_.assoc];
    for (int w = 0; w < params_.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            base[w].valid = false;
}

void
Cache::flushAll()
{
    for (auto &line : lines_)
        line.valid = false;
    nextFree_ = 0;
}

Cycle
Cache::reserveService(Cycle now, Cycle ready)
{
    Cycle start = std::max(ready, nextFree_);
    // Consume one service slot in *request* order: a request that only
    // becomes serviceable far in the future must not hold the port idle
    // for everyone arriving in between.
    nextFree_ = std::min(start, std::max(now, nextFree_)) +
                static_cast<Cycle>(params_.serviceGap);
    return start;
}

void
Cache::registerStats(StatGroup &group) const
{
    group.registerCounter(params_.name + ".hits", &hits_);
    group.registerCounter(params_.name + ".misses", &misses_);
    group.registerCounter(params_.name + ".insertions", &insertions_);
    group.registerCounter(params_.name + ".evictions", &evictions_);
}

} // namespace p5
