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
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace p5 {

// Words move as whole host words, so the host must store them in the
// wire format's byte order.
static_assert(std::endian::native == std::endian::little,
              "checkpoint words are copied as little-endian host words");

/** Appends fixed-width little-endian fields to a growing byte buffer. */
class CkptWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        bytes_.push_back(v);
    }

    void b(bool v) { u8(v ? 1 : 0); }

    void u32(std::uint32_t v) { word(v); }
    void u64(std::uint64_t v) { word(v); }

    /** Append every word of @p v in order, as u64() would: one copy. */
    void
    u64s(std::span<const std::uint64_t> v)
    {
        const auto *p = reinterpret_cast<const std::uint8_t *>(v.data());
        bytes_.insert(bytes_.end(), p, p + v.size_bytes());
    }

    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void counter(const Counter &c) { u64(c.value()); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

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

/** Consumes a CkptWriter stream; fatal() on structural mismatch. */
class CkptReader
{
  public:
    CkptReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit CkptReader(const std::vector<std::uint8_t> &bytes)
        : CkptReader(bytes.data(), bytes.size())
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    bool b() { return u8() != 0; }

    std::uint32_t u32() { return word<std::uint32_t>(); }
    std::uint64_t u64() { return word<std::uint64_t>(); }

    /** Fill @p out with the next out.size() words: one copy. */
    void
    u64s(std::span<std::uint64_t> out)
    {
        need(out.size_bytes());
        std::memcpy(out.data(), data_ + pos_, out.size_bytes());
        pos_ += out.size_bytes();
    }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    void counter(Counter &c) { c.restore(u64()); }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool exhausted() const { return pos_ == size_; }

    /** Assert the whole stream was consumed (end-of-restore check). */
    void
    expectEnd() const
    {
        if (!exhausted())
            fatal("checkpoint blob has %zu trailing bytes "
                  "(serializer/deserializer version skew)",
                  remaining());
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
