#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace p5 {

namespace {

/** The line array of @p params; fatal() on a bad geometry. */
LruArray
makeLines(const CacheParams &params)
{
    if (params.sizeBytes == 0 || params.assoc <= 0 || params.lineBytes <= 0)
        fatal("cache '%s': bad geometry", params.name.c_str());
    if (!std::has_single_bit(static_cast<std::uint64_t>(params.lineBytes)))
        fatal("cache '%s': line size must be a power of two",
              params.name.c_str());
    const std::uint64_t lines =
        params.sizeBytes / static_cast<std::uint64_t>(params.lineBytes);
    if (lines == 0 || lines % params.assoc != 0)
        fatal("cache '%s': size/assoc/line mismatch", params.name.c_str());
    const std::uint64_t sets = lines / params.assoc;
    if (!std::has_single_bit(sets))
        fatal("cache '%s': set count must be a power of two",
              params.name.c_str());
    // Both the line size and the set count are powers of two, so the
    // array's shifts equal the divide formula exactly.
    const auto line_bytes = static_cast<std::uint64_t>(params.lineBytes);
    return LruArray(sets, params.assoc, std::countr_zero(line_bytes),
                    std::countr_zero(sets * line_bytes));
}

} // namespace

Cache::Cache(const CacheParams &params)
    : params_(params), lines_(makeLines(params))
{
}

void
Cache::flushAll()
{
    lines_.flushAll();
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

} // namespace p5
