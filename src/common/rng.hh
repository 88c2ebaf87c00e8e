/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Two facilities are provided:
 *
 *  - Rng: a stateful xoshiro256** generator for sequential draws;
 *  - hashMix(): a stateless SplitMix64-style mixer used where a value must
 *    be a pure function of an index (e.g. the taken/not-taken direction of
 *    branch @c i in a synthetic program, which must be recomputable after a
 *    pipeline flush rewinds the instruction stream).
 */

#ifndef P5SIM_COMMON_RNG_HH
#define P5SIM_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace p5 {

/** Mix a 64-bit value into a well-distributed 64-bit hash (SplitMix64). */
constexpr std::uint64_t
hashMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine two 64-bit values into one hash (order sensitive). */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return hashMix(a ^ (hashMix(b) + 0x9e3779b97f4a7c15ULL + (a << 6)));
}

/**
 * Hash chain over the bytes of @p text, started from @p chain: every
 * content address and config fingerprint is one, each with its own
 * @p chain so the address domains stay independent.
 */
constexpr std::uint64_t
hashText(std::uint64_t chain, std::string_view text)
{
    std::uint64_t h = hashMix(chain ^ text.size());
    for (char c : text)
        h = hashCombine(h, static_cast<unsigned char>(c));
    return h;
}

/**
 * Digest of a byte range, eight bytes per step: the checksum of
 * checkpoint state streams and of every frame payload (artifact.hh).
 */
inline std::uint64_t
hashBytes(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = hashMix(0x9c5dab1ec4f00d5eULL ^ size);
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, data + i, 8);
        h = hashCombine(h, word);
    }
    std::uint64_t tail = 0;
    for (std::size_t k = 0; i < size; ++i, ++k)
        tail |= static_cast<std::uint64_t>(data[i]) << (8 * k);
    return hashCombine(h, tail);
}

/**
 * Deterministic xoshiro256** generator.
 *
 * Seeded via SplitMix64 so that any 64-bit seed yields a full state.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x = hashMix(x);
            word = x;
        }
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform draw in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace p5

#endif // P5SIM_COMMON_RNG_HH
