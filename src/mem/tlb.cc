#include "mem/tlb.hh"

#include <bit>

#include "common/log.hh"

namespace p5 {

namespace {

/** Set count of @p params; fatal() on a bad geometry. */
std::uint64_t
validatedSets(const TlbParams &params)
{
    if (params.entries <= 0 || params.assoc <= 0 ||
        params.entries % params.assoc != 0)
        fatal("tlb '%s': bad geometry", params.name.c_str());
    if (!std::has_single_bit(params.pageBytes))
        fatal("tlb '%s': page size must be a power of two",
              params.name.c_str());
    const auto sets =
        static_cast<std::uint64_t>(params.entries / params.assoc);
    if (!std::has_single_bit(sets))
        fatal("tlb '%s': set count must be a power of two",
              params.name.c_str());
    return sets;
}

} // namespace

// The page size is a power of two, so the shift equals the divide
// exactly. The tag is the whole virtual page number, set bits included.
Tlb::Tlb(const TlbParams &params)
    : params_(params),
      pages_(validatedSets(params), params.assoc,
             std::countr_zero(params.pageBytes),
             std::countr_zero(params.pageBytes))
{
}

} // namespace p5
