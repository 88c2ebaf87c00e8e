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

namespace p5 {

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
    u8(const T &v)
    {
        bytes_.push_back(static_cast<std::uint8_t>(v));
    }

    void b(bool v) { u8(v); }

    template <class T>
    void
    u32(const T &v)
    {
        word(static_cast<std::uint32_t>(v));
    }

    template <class T>
    void
    u64(const T &v)
    {
        word(static_cast<std::uint64_t>(v));
    }

    template <class T>
    void
    i32(const T &v)
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
    u8(T &v)
    {
        need(1);
        v = static_cast<T>(data_[pos_++]);
    }

    void b(bool &v) { u8(v); }

    template <class T>
    void
    u32(T &v)
    {
        v = static_cast<T>(word<std::uint32_t>());
    }

    template <class T>
    void
    u64(T &v)
    {
        v = static_cast<T>(word<std::uint64_t>());
    }

    template <class T>
    void
    i32(T &v)
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
