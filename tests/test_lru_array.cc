/**
 * @file
 * Tests of LruArray's encoding: each set holds its valid tags as a
 * prefix in recency order, and a checkpoint image that breaks that
 * shape is refused.
 */

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/ckpt_io.hh"
#include "common/rng.hh"
#include "lru_reference.hh"
#include "mem/lru_array.hh"
#include "test_helpers.hh"

namespace p5 {
namespace {

/** The array's tags as its checkpoint image stores them. */
std::vector<std::uint64_t>
savedTags(const LruArray &arr)
{
    CkptWriter w;
    LruArray::ckpt(arr, w);
    CkptReader r(w.data());
    std::uint64_t entries = 0;
    r.u64(entries);
    std::vector<std::uint64_t> tags(entries);
    r.u64s(tags);
    return tags;
}

// After every operation, each set's ways in the saved image must be the
// reference's valid tags sorted by last use, newest first, followed by
// invalid ways only.
TEST(LruArray, RecencyOrderMatchesTheReference)
{
    std::uint64_t geometry = 0;
    for (const std::uint64_t sets : {1, 2, 4, 8}) {
        for (const int assoc : {1, 2, 3, 5, 8}) {
            const int line = geometry % 2 == 0 ? 16 : 64;
            SCOPED_TRACE(testing::Message()
                         << line << "B blocks, " << sets << " sets, "
                         << assoc << " ways");
            const std::uint64_t span =
                sets * static_cast<std::uint64_t>(line);
            LruArray arr(sets, assoc,
                         std::countr_zero(static_cast<std::uint64_t>(line)),
                         std::countr_zero(span));
            test::LruReference ref(line, sets, assoc);
            Rng rng(0x7ece7c7ULL + geometry++);
            const std::vector<std::uint64_t> pool =
                test::collidingTags(rng, span, 3 * assoc);
            for (int op = 0; op < 2000; ++op) {
                const Addr addr = pool[rng.below(pool.size())] * span +
                                  rng.below(sets) * line +
                                  rng.below(line);
                if (rng.chance(0.005)) {
                    arr.flushAll();
                    ref.flushAll();
                } else if (rng.chance(0.15)) {
                    arr.invalidate(addr);
                    ref.invalidate(addr);
                } else {
                    ASSERT_EQ(arr.access(addr), ref.access(addr)) << op;
                }
                const std::vector<std::uint64_t> tags = savedTags(arr);
                for (std::uint64_t s = 0; s < sets; ++s) {
                    std::vector<std::uint64_t> want =
                        ref.tagsNewestFirst(s);
                    want.resize(static_cast<std::size_t>(assoc),
                                ~std::uint64_t{0});
                    const auto first = tags.begin() + s * assoc;
                    ASSERT_EQ(std::vector<std::uint64_t>(first,
                                                         first + assoc),
                              want)
                        << "set " << s << " after op " << op;
                }
            }
        }
    }
}

// One tag of a saved image is overwritten so that a set repeats a tag
// or holds a valid tag after an invalid way; restoring it is fatal.
TEST(LruArrayDeath, MalformedImageIsRefused)
{
    LruArray arr(2, 4, 6, 7);
    for (const Addr addr : {0x000, 0x080, 0x100})
        arr.access(addr); // set 0: three valid ways, then one invalid
    CkptWriter w;
    LruArray::ckpt(std::as_const(arr), w);
    const auto restoreWithWay = [&](int way, std::uint64_t tag) {
        std::vector<std::uint8_t> image = w.data();
        std::memcpy(&image[8 + 8 * way], &tag, sizeof(tag));
        LruArray again(2, 4, 6, 7);
        CkptReader r(image);
        LruArray::ckpt(again, r);
    };
    restoreWithWay(1, 7); // a fresh tag keeps the set well formed
    EXPECT_FATAL(restoreWithWay(1, 2), "holds a tag twice");
    EXPECT_FATAL(restoreWithWay(0, ~std::uint64_t{0}),
                 "valid tag after an invalid");
}

TEST(LruArrayDeath, ZeroTagShiftIsRefused)
{
    EXPECT_FATAL(LruArray(1, 1, 0, 0), "tag shift");
}

} // namespace
} // namespace p5
