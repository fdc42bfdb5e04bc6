/**
 * @file
 * Growable byte buffers and primitive wire codecs used by every
 * serializer in the repository. ByteSink/ByteSource are the minimal
 * stream abstractions; the varint/zigzag helpers implement the encodings
 * used by the protobuf/thrift/kryo-style wire formats.
 */

#ifndef SKYWAY_SUPPORT_BYTEBUFFER_HH
#define SKYWAY_SUPPORT_BYTEBUFFER_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "support/logging.hh"

namespace skyway
{

/**
 * An append-only byte sink. The base implementation accumulates into an
 * in-memory vector; subclasses may forward bytes elsewhere (e.g., a
 * simulated disk file or network channel).
 */
class ByteSink
{
  public:
    virtual ~ByteSink() = default;

    /** Append @p len raw bytes. */
    virtual void write(const void *data, std::size_t len) = 0;

    /** Total number of bytes written so far. */
    virtual std::size_t bytesWritten() const = 0;

    void writeU8(std::uint8_t v) { write(&v, 1); }

    void
    writeU16(std::uint16_t v)
    {
        write(&v, 2);
    }

    void
    writeU32(std::uint32_t v)
    {
        write(&v, 4);
    }

    void
    writeU64(std::uint64_t v)
    {
        write(&v, 8);
    }

    void writeI32(std::int32_t v) { writeU32(static_cast<std::uint32_t>(v)); }
    void writeI64(std::int64_t v) { writeU64(static_cast<std::uint64_t>(v)); }

    void
    writeF32(float v)
    {
        std::uint32_t bits;
        std::memcpy(&bits, &v, 4);
        writeU32(bits);
    }

    void
    writeF64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        writeU64(bits);
    }

    /** LEB128-style unsigned varint (protobuf/kryo wire encoding). */
    void
    writeVarU64(std::uint64_t v)
    {
        while (v >= 0x80) {
            writeU8(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        writeU8(static_cast<std::uint8_t>(v));
    }

    void writeVarU32(std::uint32_t v) { writeVarU64(v); }

    /** Zigzag-encoded signed varint. */
    void
    writeVarI64(std::int64_t v)
    {
        writeVarU64((static_cast<std::uint64_t>(v) << 1) ^
                    static_cast<std::uint64_t>(v >> 63));
    }

    void
    writeVarI32(std::int32_t v)
    {
        writeVarU32((static_cast<std::uint32_t>(v) << 1) ^
                    static_cast<std::uint32_t>(v >> 31));
    }

    /** Length-prefixed (varint) UTF-8 string. */
    void
    writeString(std::string_view s)
    {
        writeVarU64(s.size());
        write(s.data(), s.size());
    }
};

/** A ByteSink backed by an owned, growable vector. */
class VectorSink : public ByteSink
{
  public:
    void
    write(const void *data, std::size_t len) override
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + len);
    }

    std::size_t bytesWritten() const override { return buf_.size(); }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> takeBytes() { return std::move(buf_); }
    void clear() { buf_.clear(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * A sequential reader over a byte span. The span is not owned; callers
 * must keep the backing storage alive while reading.
 */
class ByteSource
{
  public:
    ByteSource(const void *data, std::size_t len)
        : data_(static_cast<const std::uint8_t *>(data)), len_(len), pos_(0)
    {}

    explicit ByteSource(const std::vector<std::uint8_t> &v)
        : ByteSource(v.data(), v.size())
    {}

    std::size_t remaining() const { return len_ - pos_; }
    std::size_t position() const { return pos_; }
    bool atEnd() const { return pos_ >= len_; }

    void
    read(void *out, std::size_t len)
    {
        panicIf(len > len_ - pos_, "ByteSource: read past end");
        std::memcpy(out, data_ + pos_, len);
        pos_ += len;
    }

    /** Borrow @p len bytes in place without copying. */
    const std::uint8_t *
    view(std::size_t len)
    {
        panicIf(len > len_ - pos_, "ByteSource: view past end");
        const std::uint8_t *p = data_ + pos_;
        pos_ += len;
        return p;
    }

    std::uint8_t
    readU8()
    {
        std::uint8_t v;
        read(&v, 1);
        return v;
    }

    std::uint16_t
    readU16()
    {
        std::uint16_t v;
        read(&v, 2);
        return v;
    }

    std::uint32_t
    readU32()
    {
        std::uint32_t v;
        read(&v, 4);
        return v;
    }

    std::uint64_t
    readU64()
    {
        std::uint64_t v;
        read(&v, 8);
        return v;
    }

    std::int32_t readI32() { return static_cast<std::int32_t>(readU32()); }
    std::int64_t readI64() { return static_cast<std::int64_t>(readU64()); }

    float
    readF32()
    {
        std::uint32_t bits = readU32();
        float v;
        std::memcpy(&v, &bits, 4);
        return v;
    }

    double
    readF64()
    {
        std::uint64_t bits = readU64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    std::uint64_t
    readVarU64()
    {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
            std::uint8_t b = readU8();
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                break;
            shift += 7;
            panicIf(shift >= 64, "ByteSource: varint too long");
        }
        return v;
    }

    std::uint32_t
    readVarU32()
    {
        return static_cast<std::uint32_t>(readVarU64());
    }

    std::int64_t
    readVarI64()
    {
        std::uint64_t u = readVarU64();
        return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
    }

    std::int32_t
    readVarI32()
    {
        std::uint32_t u = readVarU32();
        return static_cast<std::int32_t>((u >> 1) ^ (~(u & 1) + 1));
    }

    std::string
    readString()
    {
        std::size_t n = readVarU64();
        const std::uint8_t *p = view(n);
        return std::string(reinterpret_cast<const char *>(p), n);
    }

  private:
    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_;
};

} // namespace skyway

#endif // SKYWAY_SUPPORT_BYTEBUFFER_HH
