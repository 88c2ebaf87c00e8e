/**
 * @file
 * Checkpoint byte-stream primitives.
 *
 * CkptWriter/CkptReader serialize architectural state into a flat,
 * versioned byte stream with a fixed little-endian wire format, so a
 * checkpoint produced on any host restores identically on any other.
 * Values are written field-wise (never by memcpy of a struct), which
 * keeps padding bytes out of the stream — the stream is a pure function
 * of simulated state, and therefore deterministic across runs. That
 * determinism is what lets the equivalence suite compare checksums and
 * what the p5lint determinism rule audits serialization code for. A
 * u32 or u64 field moves as one whole host word: the build admits only
 * little-endian hosts (static_assert below), whose words already are
 * the wire format.
 *
 * The two classes share one method set, so a component's checkpoint
 * body is written once as a template over the stream (see
 * ckpt_state.cc): the writer's methods take a field by const reference
 * and append it, the reader's take it by reference and fill it, and
 * `restoring` tells the body which it is running. geom() is the one
 * asymmetric field: the writer records a geometry, the reader checks it.
 *
 * Every scalar primitive also takes the field's kind (FieldKind, with
 * the thread it belongs to), which the two byte streams ignore: the
 * wire format is the same with or without it. The period skip's walks
 * over the same bodies (state_walk.hh) read it to relativise a field
 * to its base and to shift it across whole periods.
 *
 * The reader treats underrun or trailing bytes as fatal: every blob it
 * sees has already passed the file-level length + checksum validation
 * (see ckpt.hh), so a structural mismatch means a version-skew bug, not
 * a corrupt file.
 */

#ifndef P5SIM_CKPT_CKPT_IO_HH
#define P5SIM_CKPT_CKPT_IO_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace p5 {

/**
 * What a checkpoint field holds, as the period skip reads it. The
 * canonical (relativised) form of each kind, and how a jump of k whole
 * periods moves it, is DESIGN §7 "Period skip"; in short:
 */
enum class FieldKind : std::uint8_t
{
    Plain,     ///< compared as is; a jump keeps it
    Counter,   ///< a statistic: not compared; a jump adds k deltas
    Cycle,     ///< an exact cycle: relative to now; never_cycle stays
    ReadyAt,   ///< a cycle every past value of which acts alike:
               ///< relative to now, clamped at 0 for the past
    WalkAge,   ///< a past request read only as "within horizon of now":
               ///< its age, clamped past the horizon
    Seq,       ///< a thread's sequence number: relative to its stream
    Stamp,     ///< a dispatch stamp: relative to the core's next stamp
    Epoch,     ///< a squash epoch: relative to the thread's epoch
    Slot,      ///< a physical window slot: relative to the window head
    StreamPos, ///< a thread's stream position: modulo its period
    Progress,  ///< per-thread progress (executions): not compared
    Event,     ///< the cycle of a thread's last completed execution:
               ///< history, not compared; a jump moves it by whole
               ///< periods when the event recurs in each of them
    Probe      ///< fast-forward probe bookkeeping: ignored, kept
};

/** A field's kind, the thread it belongs to, and a WalkAge horizon. */
struct Field
{
    FieldKind kind = FieldKind::Plain;
    std::int8_t tid = -1;
    std::uint32_t horizon = 0;
};

/** Field kinds as the checkpoint bodies name them. */
namespace field {
inline constexpr Field cycle{FieldKind::Cycle};
inline constexpr Field readyAt{FieldKind::ReadyAt};
inline constexpr Field stamp{FieldKind::Stamp};
inline constexpr Field probe{FieldKind::Probe};

constexpr Field
of(FieldKind kind, ThreadId tid)
{
    return {kind, static_cast<std::int8_t>(tid), 0};
}
constexpr Field seq(ThreadId tid) { return of(FieldKind::Seq, tid); }
constexpr Field epoch(ThreadId tid) { return of(FieldKind::Epoch, tid); }
constexpr Field slot(ThreadId tid) { return of(FieldKind::Slot, tid); }
constexpr Field
streamPos(ThreadId tid)
{
    return of(FieldKind::StreamPos, tid);
}
constexpr Field
progress(ThreadId tid)
{
    return of(FieldKind::Progress, tid);
}
constexpr Field event(ThreadId tid) { return of(FieldKind::Event, tid); }
constexpr Field
walkAge(Cycle horizon)
{
    return {FieldKind::WalkAge, -1, static_cast<std::uint32_t>(horizon)};
}
} // namespace field

// Words move as whole host words, so the host must store them in the
// wire format's byte order.
static_assert(std::endian::native == std::endian::little,
              "checkpoint words are copied as little-endian host words");

/**
 * Appends fixed-width little-endian fields to a growing byte buffer.
 * Each method's name fixes the field's width on the wire, whatever the
 * C++ type of the value: an enum travels as u8, a RegIndex as i32.
 */
class CkptWriter
{
  public:
    static constexpr bool restoring = false;

    template <class T>
    void
    u8(const T &v, Field = {})
    {
        bytes_.push_back(static_cast<std::uint8_t>(v));
    }

    void b(bool v, Field f = {}) { u8(v, f); }

    template <class T>
    void
    u32(const T &v, Field = {})
    {
        word(static_cast<std::uint32_t>(v));
    }

    template <class T>
    void
    u64(const T &v, Field = {})
    {
        word(static_cast<std::uint64_t>(v));
    }

    template <class T>
    void
    i32(const T &v, Field = {})
    {
        word(static_cast<std::uint32_t>(static_cast<std::int32_t>(v)));
    }

    /** Append every word of @p v in order, as u64() would: one copy. */
    void
    u64s(std::span<const std::uint64_t> v)
    {
        const auto *p = reinterpret_cast<const std::uint8_t *>(v.data());
        bytes_.insert(bytes_.end(), p, p + v.size_bytes());
    }

    /** Append every byte of @p v in order, as u8() would: one copy. */
    void
    u8s(std::span<const std::uint8_t> v)
    {
        bytes_.insert(bytes_.end(), v.begin(), v.end());
    }

    void counter(const Counter &c) { u64(c.value()); }

    /** Record the restoring core's geometry @p n (the reader checks it). */
    void geom(const char *, std::uint64_t n) { u64(n); }

    const std::vector<std::uint8_t> &data() const { return bytes_; }
    std::size_t size() const { return bytes_.size(); }

    /** Stable 64-bit digest of the stream (SplitMix64 chain). */
    std::uint64_t
    checksum() const
    {
        return hashBytes(bytes_.data(), bytes_.size());
    }

  private:
    /** Append @p v's bytes: little-endian, as the host stores it. */
    template <typename Word>
    void
    word(Word v)
    {
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        bytes_.insert(bytes_.end(), p, p + sizeof(v));
    }

    std::vector<std::uint8_t> bytes_;
};

/**
 * Consumes a CkptWriter stream into the fields it names, with the same
 * method names and widths as the writer; fatal() on structural mismatch.
 */
class CkptReader
{
  public:
    static constexpr bool restoring = true;

    CkptReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit CkptReader(const std::vector<std::uint8_t> &bytes)
        : CkptReader(bytes.data(), bytes.size())
    {}

    template <class T>
    void
    u8(T &v, Field = {})
    {
        need(1);
        v = static_cast<T>(data_[pos_++]);
    }

    void b(bool &v, Field f = {}) { u8(v, f); }

    template <class T>
    void
    u32(T &v, Field = {})
    {
        v = static_cast<T>(word<std::uint32_t>());
    }

    template <class T>
    void
    u64(T &v, Field = {})
    {
        v = static_cast<T>(word<std::uint64_t>());
    }

    template <class T>
    void
    i32(T &v, Field = {})
    {
        v = static_cast<T>(static_cast<std::int32_t>(word<std::uint32_t>()));
    }

    /** Fill @p out with the next out.size() words: one copy. */
    void
    u64s(std::span<std::uint64_t> out)
    {
        need(out.size_bytes());
        std::memcpy(out.data(), data_ + pos_, out.size_bytes());
        pos_ += out.size_bytes();
    }

    /** Fill @p out with the next out.size() bytes: one copy. */
    void
    u8s(std::span<std::uint8_t> out)
    {
        need(out.size());
        std::memcpy(out.data(), data_ + pos_, out.size());
        pos_ += out.size();
    }

    void counter(Counter &c) { c.restore(word<std::uint64_t>()); }

    /** Read a geometry the writer recorded; fatal unless it is @p built. */
    void
    geom(const char *what, std::uint64_t built)
    {
        const auto saved = word<std::uint64_t>();
        if (saved != built)
            fatal("checkpoint geometry mismatch: %s is %llu in the stream "
                  "but %llu in the restoring core (checkpoint key bug?)",
                  what, static_cast<unsigned long long>(saved),
                  static_cast<unsigned long long>(built));
    }

    /** Assert the whole stream was consumed (end-of-restore check). */
    void
    expectEnd() const
    {
        if (pos_ != size_)
            fatal("checkpoint blob has %zu trailing bytes "
                  "(serializer/deserializer version skew)",
                  size_ - pos_);
    }

  private:
    /** Read one little-endian word (see CkptWriter::word). */
    template <typename Word>
    Word
    word()
    {
        need(sizeof(Word));
        Word v;
        std::memcpy(&v, data_ + pos_, sizeof(v));
        pos_ += sizeof(v);
        return v;
    }

    void
    need(std::uint64_t n) const
    {
        if (n > size_ - pos_)
            fatal("checkpoint blob underrun: want %llu bytes, have %zu "
                  "(serializer/deserializer version skew)",
                  static_cast<unsigned long long>(n), size_ - pos_);
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace p5

#endif // P5SIM_CKPT_CKPT_IO_HH
