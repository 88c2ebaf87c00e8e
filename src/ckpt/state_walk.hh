/**
 * @file
 * Two more walks over the checkpoint bodies, for the period skip
 * (DESIGN §7 "Period skip").
 *
 * StateRelativiser reads a core's state through the same ckpt(self, io)
 * bodies a CkptWriter does, but writes each field relative to its base
 * as its FieldKind says: cycles relative to now, sequence numbers
 * relative to the thread's stream position, stamps relative to the next
 * dispatch stamp, epochs relative to the thread's epoch, window slots
 * relative to the window head and the stream position modulo the
 * source's period. Statistics, per-thread progress and fast-forward
 * probe bookkeeping are left out. Two cores whose relativised states
 * are equal run alike from then on, shifted in time: that is the
 * recurrence the skip looks for. The walk fills a StateSnapshot: a
 * 64-bit hash of the compared words, the words themselves, the LRU tag
 * arrays kept sparsely, and every scalar field raw, with its kind, for
 * a jump.
 *
 * StateReplayer is the restore side of a jump: it feeds a shifted raw
 * image back through the bodies, as a CkptReader does, and leaves the
 * bulk arrays (LRU tags, BHT counters) in place: they are plain, so a
 * jump never changes them.
 */

#ifndef P5SIM_CKPT_STATE_WALK_HH
#define P5SIM_CKPT_STATE_WALK_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/ckpt_io.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace p5 {

/** The bases StateRelativiser relativises against. */
struct RelBases
{
    Cycle now = 0;
    std::uint64_t stamp = 0; ///< the core's next dispatch stamp

    struct Thread
    {
        SeqNum pos = 0;            ///< stream position
        std::uint64_t epoch = 0;   ///< squash epoch
        std::uint64_t head = 0;    ///< window ring head slot
        std::uint64_t capacity = 1;
        std::uint64_t period = 0;  ///< source period, instructions
    };
    std::array<Thread, num_hw_threads> thread{};
};

/** One relativised image of a core, at an execution boundary. */
struct StateSnapshot
{
    Cycle cycle = 0;

    /** Every scalar field as stored, in stream order, and its kind. */
    std::vector<std::uint64_t> raw;
    std::vector<Field> kinds;

    /** The compared fields, relativised. */
    std::vector<std::uint64_t> canon;

    /** Valid words of the bulk tag arrays: (position, word) pairs. */
    std::vector<std::uint64_t> tags;

    /** The bulk byte arrays (the BHT counters), concatenated. */
    std::vector<std::uint8_t> bytes;

    std::uint64_t hash = 0;

    /** Exact recurrence: equal relativised fields and tag arrays. */
    bool
    sameState(const StateSnapshot &o) const
    {
        return hash == o.hash && canon == o.canon && tags == o.tags &&
               bytes == o.bytes;
    }
};

/** Save-side walk: relativise every field into a snapshot and hash. */
class StateRelativiser
{
  public:
    static constexpr bool restoring = false;

    /** Fill @p out (cleared first) as the bodies are walked. */
    StateRelativiser(const RelBases &bases, StateSnapshot &out)
        : bases_(bases), out_(out)
    {
        out_.cycle = bases.now;
        out_.raw.clear();
        out_.kinds.clear();
        out_.canon.clear();
        out_.tags.clear();
        out_.bytes.clear();
        out_.hash = 0x5eed5eed5eed5eedull;
    }

    template <class T>
    void
    u8(const T &v, Field f = {})
    {
        scalar(static_cast<std::uint64_t>(v), f);
    }

    void b(bool v, Field f = {}) { scalar(v, f); }

    template <class T>
    void
    u32(const T &v, Field f = {})
    {
        scalar(static_cast<std::uint64_t>(v), f);
    }

    template <class T>
    void
    u64(const T &v, Field f = {})
    {
        scalar(static_cast<std::uint64_t>(v), f);
    }

    template <class T>
    void
    i32(const T &v, Field f = {})
    {
        scalar(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)), f);
    }

    /** A bulk tag array: plain words, kept sparsely (invalid = ~0). */
    void
    u64s(std::span<const std::uint64_t> v)
    {
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (v[i] == ~std::uint64_t{0})
                continue;
            emit(bulkPos_ + i);
            emit(v[i]);
            out_.tags.push_back(bulkPos_ + i);
            out_.tags.push_back(v[i]);
        }
        bulkPos_ += v.size();
    }

    /** A bulk byte array: plain, kept whole. */
    void
    u8s(std::span<const std::uint8_t> v)
    {
        emit(hashBytes(v.data(), v.size()));
        out_.bytes.insert(out_.bytes.end(), v.begin(), v.end());
    }

    void counter(const Counter &c) { scalar(c.value(), {FieldKind::Counter}); }

    void geom(const char *, std::uint64_t n) { scalar(n, {}); }

    /**
     * A plain word that is state without being in the checkpoint
     * bodies (the decode-slot phase, the priorities): compared, never
     * replayed.
     */
    void extra(std::uint64_t v) { canonical(v); }

  private:
    /** Canonical stand-in for never_cycle: unreachable by a relative
     *  cycle while cycles stay below 2^63. */
    static constexpr std::uint64_t never_mark = std::uint64_t{1} << 63;

    void
    scalar(std::uint64_t v, Field f)
    {
        out_.raw.push_back(v);
        out_.kinds.push_back(f);
        const std::uint64_t now = bases_.now;
        const auto th = [&]() -> const RelBases::Thread & {
            return bases_.thread[static_cast<std::size_t>(f.tid)];
        };
        switch (f.kind) {
          case FieldKind::Plain:
            canonical(v);
            break;
          case FieldKind::Counter:
          case FieldKind::Progress:
          case FieldKind::Event:
          case FieldKind::Probe:
            break;
          case FieldKind::Cycle:
            canonical(v == never_cycle ? never_mark : v - now);
            break;
          case FieldKind::ReadyAt:
            canonical(v == never_cycle ? never_mark
                                       : (v > now ? v - now : 0));
            break;
          case FieldKind::WalkAge:
            // An age (now - v) is written complemented, apart from any
            // (unexpected) future value written as v - now.
            if (v == never_cycle)
                canonical(never_mark);
            else if (v > now)
                canonical(v - now);
            else
                canonical(~std::min<std::uint64_t>(now - v,
                                                   f.horizon + 1ull));
            break;
          case FieldKind::Seq:
            canonical(v - th().pos);
            break;
          case FieldKind::Stamp:
            canonical(v - bases_.stamp);
            break;
          case FieldKind::Epoch:
            canonical(v - th().epoch);
            break;
          case FieldKind::Slot:
            canonical((v + th().capacity - th().head) % th().capacity);
            break;
          case FieldKind::StreamPos:
            canonical(th().period ? v % th().period : v);
            break;
        }
    }

    void
    canonical(std::uint64_t w)
    {
        emit(w);
        out_.canon.push_back(w);
    }

    void emit(std::uint64_t w) { out_.hash = hashCombine(out_.hash, w); }

    const RelBases &bases_;
    StateSnapshot &out_;
    std::uint64_t bulkPos_ = 0;
};

/**
 * Restore-side walk of a jump: every scalar field takes the next value
 * of a raw image (StateSnapshot::raw after the shift), and the bulk
 * arrays stay as they are.
 */
class StateReplayer
{
  public:
    static constexpr bool restoring = true;

    explicit StateReplayer(const std::vector<std::uint64_t> &values)
        : values_(values)
    {}

    template <class T>
    void
    u8(T &v, Field = {})
    {
        v = static_cast<T>(next());
    }

    void b(bool &v, Field = {}) { v = next() != 0; }

    template <class T>
    void
    u32(T &v, Field = {})
    {
        v = static_cast<T>(next());
    }

    template <class T>
    void
    u64(T &v, Field = {})
    {
        v = static_cast<T>(next());
    }

    template <class T>
    void
    i32(T &v, Field = {})
    {
        v = static_cast<T>(static_cast<std::int64_t>(next()));
    }

    void u64s(std::span<std::uint64_t>) {}
    void u8s(std::span<std::uint8_t>) {}

    void counter(Counter &c) { c.restore(next()); }

    void
    geom(const char *what, std::uint64_t built)
    {
        if (next() != built)
            panic("period jump: %s changed under the jump", what);
    }

    void
    expectEnd() const
    {
        if (pos_ != values_.size())
            panic("period jump: %zu image fields left over",
                  values_.size() - pos_);
    }

  private:
    std::uint64_t
    next()
    {
        if (pos_ == values_.size())
            panic("period jump: image underrun");
        return values_[pos_++];
    }

    const std::vector<std::uint64_t> &values_;
    std::size_t pos_ = 0;
};

} // namespace p5

#endif // P5SIM_CKPT_STATE_WALK_HH
