/**
 * @file
 * Unit tests for the support module: byte codecs, varints, RNG
 * determinism, and alignment helpers.
 */

#include <gtest/gtest.h>

#include "support/bytebuffer.hh"
#include "support/rng.hh"
#include "support/types.hh"

namespace skyway
{
namespace
{

TEST(Align, WordAlign)
{
    EXPECT_EQ(wordAlign(0), 0u);
    EXPECT_EQ(wordAlign(1), 8u);
    EXPECT_EQ(wordAlign(8), 8u);
    EXPECT_EQ(wordAlign(9), 16u);
    EXPECT_EQ(alignUp(13, 4), 16u);
    EXPECT_EQ(alignUp(16, 16), 16u);
}

TEST(ByteBuffer, PrimitiveRoundTrip)
{
    VectorSink sink;
    sink.writeU8(0xab);
    sink.writeU16(0x1234);
    sink.writeU32(0xdeadbeef);
    sink.writeU64(0x0123456789abcdefull);
    sink.writeI32(-42);
    sink.writeI64(-1e15);
    sink.writeF32(3.5f);
    sink.writeF64(-2.25);
    sink.writeString("hello skyway");

    ByteSource src(sink.bytes());
    EXPECT_EQ(src.readU8(), 0xab);
    EXPECT_EQ(src.readU16(), 0x1234);
    EXPECT_EQ(src.readU32(), 0xdeadbeefu);
    EXPECT_EQ(src.readU64(), 0x0123456789abcdefull);
    EXPECT_EQ(src.readI32(), -42);
    EXPECT_EQ(src.readI64(), static_cast<std::int64_t>(-1e15));
    EXPECT_EQ(src.readF32(), 3.5f);
    EXPECT_EQ(src.readF64(), -2.25);
    EXPECT_EQ(src.readString(), "hello skyway");
    EXPECT_TRUE(src.atEnd());
}

TEST(ByteBuffer, VarintEncodingSizes)
{
    VectorSink sink;
    sink.writeVarU64(0);
    EXPECT_EQ(sink.bytesWritten(), 1u);
    sink.clear();
    sink.writeVarU64(127);
    EXPECT_EQ(sink.bytesWritten(), 1u);
    sink.clear();
    sink.writeVarU64(128);
    EXPECT_EQ(sink.bytesWritten(), 2u);
    sink.clear();
    sink.writeVarU64(~0ull);
    EXPECT_EQ(sink.bytesWritten(), 10u);
}

TEST(ByteBuffer, VarintRoundTripSweep)
{
    VectorSink sink;
    std::vector<std::uint64_t> vals;
    for (int shift = 0; shift < 64; ++shift) {
        vals.push_back(1ull << shift);
        vals.push_back((1ull << shift) - 1);
    }
    for (auto v : vals)
        sink.writeVarU64(v);
    ByteSource src(sink.bytes());
    for (auto v : vals)
        EXPECT_EQ(src.readVarU64(), v);
}

TEST(ByteBuffer, ZigzagRoundTrip)
{
    VectorSink sink;
    std::vector<std::int64_t> vals = {0, -1, 1, -64, 63, -65, 64,
                                      INT32_MIN, INT32_MAX, INT64_MIN,
                                      INT64_MAX};
    for (auto v : vals) {
        sink.writeVarI64(v);
        sink.writeVarI32(static_cast<std::int32_t>(v & 0xffffffff));
    }
    ByteSource src(sink.bytes());
    for (auto v : vals) {
        EXPECT_EQ(src.readVarI64(), v);
        EXPECT_EQ(src.readVarI32(),
                  static_cast<std::int32_t>(v & 0xffffffff));
    }
}

TEST(ByteBuffer, ZigzagSmallMagnitudeIsShort)
{
    // Zigzag exists so small negative numbers stay short.
    VectorSink sink;
    sink.writeVarI64(-1);
    EXPECT_EQ(sink.bytesWritten(), 1u);
    sink.clear();
    sink.writeVarI64(-64);
    EXPECT_EQ(sink.bytesWritten(), 1u);
    sink.clear();
    sink.writeVarI64(-65);
    EXPECT_EQ(sink.bytesWritten(), 2u);
}

TEST(ByteBuffer, HugeLengthsPanicPastEnd)
{
    // A peer-sent length near 2^64 must not wrap the bounds check.
    VectorSink sink;
    sink.writeU32(0);
    sink.writeVarU64(UINT64_MAX);
    sink.writeU16(0);
    const std::vector<std::uint8_t> bytes = sink.takeBytes();

    ByteSource in(bytes);
    in.readU32();
    std::size_t huge = in.readVarU64();
    ASSERT_EQ(huge, SIZE_MAX);
    EXPECT_DEATH(in.view(huge), "past end");
    EXPECT_DEATH(
        {
            std::uint8_t out = 0;
            in.read(&out, huge);
        },
        "past end");

    ByteSource str(bytes);
    str.readU32();
    EXPECT_DEATH(str.readString(), "past end");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    bool all_equal = true;
    bool any_diff_seed = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.nextU64();
        auto vb = b.nextU64();
        auto vc = c.nextU64();
        all_equal = all_equal && (va == vb);
        any_diff_seed = any_diff_seed || (va != vc);
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, BoundedInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, PowerLawSkewed)
{
    // A power law over [0, n) must put most mass near 0.
    Rng r(11);
    const std::uint64_t n = 1000;
    int low = 0;
    const int draws = 10000;
    for (int i = 0; i < draws; ++i) {
        auto k = r.nextPowerLaw(n, 2.0);
        ASSERT_LT(k, n);
        if (k < n / 10)
            ++low;
    }
    EXPECT_GT(low, draws / 2);
}

} // namespace
} // namespace skyway
