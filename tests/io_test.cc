#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>

#include "io/bitio.h"
#include "io/crc32.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "io/varint.h"
#include "testing_support.h"

namespace scishuffle {
namespace {

TEST(VarintTest, SingleByteRange) {
  // Hadoop's WritableUtils stores [-112, 127] in one byte. This is what makes
  // an IFile record's framing cost exactly 2 bytes for small keys/values.
  for (i64 v = -112; v <= 127; ++v) {
    Bytes buf;
    MemorySink sink(buf);
    writeVLong(sink, v);
    EXPECT_EQ(buf.size(), 1u) << v;
    MemorySource src(buf);
    EXPECT_EQ(readVLong(src), v);
  }
}

class VarintRoundTrip : public ::testing::TestWithParam<i64> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  const i64 v = GetParam();
  Bytes buf;
  MemorySink sink(buf);
  writeVLong(sink, v);
  EXPECT_EQ(buf.size(), vlongSize(v));
  MemorySource src(buf);
  EXPECT_EQ(readVLong(src), v);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values<i64>(0, 1, -1, 127, 128, -112, -113, 255, 256, -256,
                                                65535, 65536, -65536, (i64{1} << 31) - 1,
                                                i64{1} << 31, -(i64{1} << 31), (i64{1} << 47),
                                                std::numeric_limits<i64>::max(),
                                                std::numeric_limits<i64>::min()));

TEST(VarintTest, NegativeFirstByteDetection) {
  for (const i64 v : {i64{-1}, i64{-112}, i64{-113}, i64{-100000}}) {
    Bytes buf;
    MemorySink sink(buf);
    writeVLong(sink, v);
    EXPECT_TRUE(vlongFirstByteIsNegative(buf[0])) << v;
  }
  for (const i64 v : {i64{0}, i64{127}, i64{128}, i64{100000}}) {
    Bytes buf;
    MemorySink sink(buf);
    writeVLong(sink, v);
    EXPECT_FALSE(vlongFirstByteIsNegative(buf[0])) << v;
  }
}

TEST(VarintTest, TruncatedInputThrows) {
  Bytes buf;
  MemorySink sink(buf);
  writeVLong(sink, 1234567);
  buf.pop_back();
  MemorySource src(buf);
  EXPECT_THROW(readVLong(src), FormatError);
}

TEST(PrimitivesTest, BigEndianLayout) {
  Bytes buf;
  MemorySink sink(buf);
  writeU32(sink, 0x01020304u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(PrimitivesTest, RoundTrips) {
  Bytes buf;
  MemorySink sink(buf);
  writeU16(sink, 0xBEEF);
  writeI32(sink, -42);
  writeI64(sink, -1234567890123LL);
  writeF32(sink, 3.25f);
  writeF64(sink, -2.5e300);
  writeText(sink, "windspeed1");
  MemorySource src(buf);
  EXPECT_EQ(readU16(src), 0xBEEF);
  EXPECT_EQ(readI32(src), -42);
  EXPECT_EQ(readI64(src), -1234567890123LL);
  EXPECT_EQ(readF32(src), 3.25f);
  EXPECT_EQ(readF64(src), -2.5e300);
  EXPECT_EQ(readText(src), "windspeed1");
  EXPECT_EQ(src.remaining(), 0u);
}

TEST(PrimitivesTest, TextSizeMatchesIntroKeyArithmetic) {
  // §I: key with Text("windspeed1") is 11 bytes of name; with an int index
  // it is 4 bytes — the 7-byte difference behind 33,000,006 vs 26,000,006.
  EXPECT_EQ(textSize("windspeed1"), 11u);
}

TEST(Crc32Test, KnownVector) {
  const std::string s = "123456789";
  EXPECT_EQ(crc32(ByteSpan(reinterpret_cast<const u8*>(s.data()), s.size())), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const Bytes data = testing::randomBytes(10000, 7);
  Crc32 crc;
  crc.update(ByteSpan(data).subspan(0, 1234));
  crc.update(ByteSpan(data).subspan(1234));
  EXPECT_EQ(crc.value(), crc32(data));
}

TEST(BitIoTest, RoundTripsMixedWidths) {
  Bytes buf;
  MemorySink sink(buf);
  BitWriter bw(sink);
  bw.writeBits(0b1, 1);
  bw.writeBits(0b1010, 4);
  bw.writeBits(0xDEAD, 16);
  bw.writeBits(0x0FFFFFFF, 28);
  bw.finish();
  MemorySource src(buf);
  BitReader br(src);
  EXPECT_EQ(br.readBits(1), 0b1u);
  EXPECT_EQ(br.readBits(4), 0b1010u);
  EXPECT_EQ(br.readBits(16), 0xDEADu);
  EXPECT_EQ(br.readBits(28), 0x0FFFFFFFu);
}

TEST(BitIoTest, MsbFirstCodesRoundTripBitByBit) {
  Bytes buf;
  MemorySink sink(buf);
  BitWriter bw(sink);
  bw.writeCodeMsbFirst(0b1011, 4);
  bw.finish();
  MemorySource src(buf);
  BitReader br(src);
  u32 code = 0;
  for (int i = 0; i < 4; ++i) code = (code << 1) | br.readBit();
  EXPECT_EQ(code, 0b1011u);
}

TEST(StreamsTest, FileRoundTrip) {
  const testing::TempDir dir;
  const auto path = dir.file("scishuffle_io_test.bin");
  const Bytes data = testing::randomBytes(100000, 3);
  {
    FileSink sink(path);
    sink.write(data);
  }
  FileSource source(path);
  EXPECT_EQ(source.readAll(), data);
}

TEST(StreamsTest, ConsumedTracksBytesHandedOut) {
  const Bytes data = testing::randomBytes(100, 4);
  MemorySource src(data);
  EXPECT_EQ(src.consumed(), 0u);
  Bytes out(30);
  src.readExact(MutableByteSpan(out.data(), out.size()));
  EXPECT_EQ(src.consumed(), 30u);
  src.readByte();
  EXPECT_EQ(src.consumed(), 31u);
  src.readAll();
  EXPECT_EQ(src.consumed(), 100u);
  // EOF reads don't advance.
  EXPECT_EQ(src.readByte(), -1);
  EXPECT_EQ(src.consumed(), 100u);
}

TEST(StreamsTest, ReadExactThrowsOnTruncation) {
  const Bytes data(10, 0);
  MemorySource src(data);
  Bytes out(11);
  EXPECT_THROW(src.readExact(MutableByteSpan(out.data(), out.size())), FormatError);
}

}  // namespace
}  // namespace scishuffle
