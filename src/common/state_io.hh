#pragma once

/**
 * @file
 * Field-by-field binary serialization for warmup checkpoints: the
 * StateWriter/StateReader pair every component's saveState/loadState
 * uses (see docs/sessions.md). The format is deliberately dumb and
 * explicit — fixed-width little-endian integers written one field at a
 * time, never whole structs — so a checkpoint is identical across
 * compilers, padding rules and host endianness.
 *
 * Cost: both sides stream through a fixed window of kStateWindow
 * bytes. A field that lies inside the window is an inline
 * bounds check plus a copy; the window is refilled from the
 * ByteSource, or flushed to the ByteSink, only at its edge, and the
 * checksum is folded over whole windows. Memory per open stream is
 * O(kStateWindow) whatever the checkpoint's size; nothing buffers a
 * whole checkpoint. Windowing changes no byte on the wire.
 *
 * Robustness: every payload byte feeds a running FNV-1a checksum on
 * both sides; section tags ("CORE", "LLC0", ...) frame each
 * component so a truncated or drifted stream fails with a message
 * naming the section, not garbage state. All reader defects throw
 * StateError; SimSession::restore() turns any defect into a clean
 * "re-warm from scratch" miss.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/fnv.hh"

namespace hermes
{

class ByteSink;
class ByteSource;

/** Bytes a StateWriter stages, and a StateReader holds, per stream. */
inline constexpr std::size_t kStateWindow = 64 * 1024;

/** Any checkpoint decode defect: truncation, bad tag, bad checksum. */
class StateError : public std::runtime_error
{
  public:
    explicit StateError(const std::string &what)
        : std::runtime_error("checkpoint: " + what)
    {
    }
};

/**
 * Serializes checkpoint fields into a ByteSink, checksumming along.
 * Fields are staged in the window and reach the sink when it fills
 * and in sealChecksum(); a writer destroyed before sealChecksum()
 * drops what it staged.
 */
class StateWriter
{
  public:
    explicit StateWriter(ByteSink &sink);

    void u8(std::uint8_t v) { put<1>(v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u16(std::uint16_t v) { put<2>(v); }
    void u32(std::uint32_t v) { put<4>(v); }
    void u64(std::uint64_t v) { put<8>(v); }

    void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
    void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** IEEE bit pattern: exact round trip, no locale/format drift. */
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    f32(float v)
    {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u32(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Frame the next component; the reader must match the same tag. */
    void
    section(const char *tag)
    {
        str(tag);
    }

    /**
     * Append the running checksum (not fed back into the hash) and
     * flush everything to the sink. Call exactly once, after the last
     * field.
     */
    void sealChecksum();

  private:
    /** The low @p N bytes of @p v, little-endian. */
    template <std::size_t N>
    void
    put(std::uint64_t v)
    {
        if (kStateWindow - fill_ < N)
            flush();
        unsigned char *p = window_.get() + fill_;
        for (std::size_t i = 0; i < N; ++i)
            p[i] = static_cast<unsigned char>(v >> (8 * i));
        fill_ += N;
    }

    void bytes(const void *data, std::size_t size);
    /** Checksum the staged bytes and hand them to the sink. */
    void flush();

    ByteSink &sink_;
    Fnv64 hash_;
    std::unique_ptr<unsigned char[]> window_;
    std::size_t fill_ = 0;
};

/** The mirror-image reader; any defect throws StateError. */
class StateReader
{
  public:
    explicit StateReader(ByteSource &source);

    std::uint8_t u8() { return static_cast<std::uint8_t>(get<1>()); }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw StateError("bad boolean byte");
        return v != 0;
    }

    std::uint16_t u16() { return static_cast<std::uint16_t>(get<2>()); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(get<4>()); }
    std::uint64_t u64() { return get<8>(); }

    std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
    std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    float
    f32()
    {
        const std::uint32_t bits = u32();
        float v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str(std::size_t max_size = kMaxString);

    /** Read a section tag and require it to equal @p tag. */
    void section(const char *tag);

    /** Bounded count for containers (defends against garbage sizes). */
    std::size_t
    count(std::size_t max)
    {
        const std::uint64_t n = u64();
        if (n > max)
            throw StateError("container size " + std::to_string(n) +
                             " exceeds bound " + std::to_string(max));
        return static_cast<std::size_t>(n);
    }

    /**
     * Read the trailing checksum word (not hashed) and require it to
     * match the payload hash; then require end-of-stream.
     */
    void verifyChecksum();

  private:
    /** The next @p N bytes as a little-endian integer. */
    template <std::size_t N>
    std::uint64_t
    get()
    {
        if (end_ - pos_ < N)
            refill(N);
        const unsigned char *p = window_.get() + pos_;
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < N; ++i)
            v |= std::uint64_t{p[i]} << (8 * i);
        pos_ += N;
        return v;
    }

    void bytes(void *data, std::size_t size);
    /**
     * Checksum the consumed bytes, slide the unread tail to the front
     * and read until at least @p need bytes are held; throws on a
     * stream that ends first.
     */
    void refill(std::size_t need);
    /** Fold the consumed, not yet hashed bytes into the checksum. */
    void hashConsumed();

    static constexpr std::size_t kMaxString = 1u << 20;

    ByteSource &source_;
    Fnv64 hash_;
    std::unique_ptr<unsigned char[]> window_;
    std::size_t pos_ = 0;    ///< next unread byte
    std::size_t end_ = 0;    ///< one past the last byte held
    std::size_t hashed_ = 0; ///< bytes before this are in hash_
};

} // namespace hermes
