// Edge cases for the Hadoop WritableUtils vlong codec: max-length encodings,
// EOF mid-varint, and the stream offset carried by FormatError messages.
#include <gtest/gtest.h>

#include <limits>

#include "io/streams.h"
#include "io/varint.h"
#include "testing_support.h"

namespace scishuffle {
namespace {

Bytes encode(i64 v) {
  Bytes out;
  MemorySink sink(out);
  writeVLong(sink, v);
  return out;
}

TEST(VarintTest, MaxLengthEncodingsRoundTrip) {
  // The 9-byte extremes and every byte-count boundary in between.
  const i64 cases[] = {std::numeric_limits<i64>::max(),
                       std::numeric_limits<i64>::min(),
                       std::numeric_limits<i64>::max() - 1,
                       std::numeric_limits<i64>::min() + 1,
                       127,
                       128,
                       -112,
                       -113,
                       255,
                       256,
                       65535,
                       65536,
                       static_cast<i64>(1) << 32,
                       -(static_cast<i64>(1) << 32),
                       0};
  for (const i64 v : cases) {
    const Bytes buf = encode(v);
    EXPECT_EQ(buf.size(), vlongSize(v)) << v;
    MemorySource src(buf);
    EXPECT_EQ(readVLong(src), v) << v;
    EXPECT_EQ(src.remaining(), 0u) << v;
  }
  EXPECT_EQ(encode(std::numeric_limits<i64>::max()).size(), 9u);
  EXPECT_EQ(encode(std::numeric_limits<i64>::min()).size(), 9u);
}

TEST(VarintTest, EofAtStartNamesOffsetZero) {
  const Bytes empty;
  MemorySource src(empty);
  try {
    readVLong(src);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("EOF reading vlong"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("offset 0"), std::string::npos) << e.what();
  }
}

TEST(VarintTest, EofMidVarintNamesStartOffset) {
  // A few leading single-byte vlongs, then a 9-byte encoding cut short: the
  // error must name the offset where the truncated vlong *started*.
  Bytes buf;
  MemorySink sink(buf);
  writeVLong(sink, 1);
  writeVLong(sink, 2);
  writeVLong(sink, 3);
  const std::size_t start = buf.size();
  writeVLong(sink, std::numeric_limits<i64>::max());
  for (std::size_t cut = start + 1; cut < buf.size(); ++cut) {
    Bytes truncated(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    MemorySource src(truncated);
    EXPECT_EQ(readVLong(src), 1);
    EXPECT_EQ(readVLong(src), 2);
    EXPECT_EQ(readVLong(src), 3);
    try {
      readVLong(src);
      FAIL() << "expected FormatError at cut " << cut;
    } catch (const FormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("EOF inside vlong"), std::string::npos) << what;
      EXPECT_NE(what.find("offset " + std::to_string(start)), std::string::npos) << what;
    }
  }
}

TEST(VarintTest, FirstByteNegativityMatchesDecodedSign) {
  for (int b = 0; b < 256; ++b) {
    const u8 fb = static_cast<u8>(b);
    // Feed the first byte plus enough zero payload for any length.
    Bytes buf(10, 0);
    buf[0] = fb;
    MemorySource src(buf);
    const i64 v = readVLong(src);
    EXPECT_EQ(vlongFirstByteIsNegative(fb), v < 0) << "first byte " << b;
  }
}

TEST(VarintTest, SpanDecodeMatchesStreamDecodeAndStopsShort) {
  // decodeVLong (the record readers' in-place path) must read what
  // readVLong reads, and report 0 for every prefix that ends inside it.
  const i64 cases[] = {std::numeric_limits<i64>::min(), -(static_cast<i64>(1) << 32), -113, -112,
                       -1, 0, 127, 128, 65536, std::numeric_limits<i64>::max()};
  for (const i64 v : cases) {
    Bytes buf = encode(v);
    const std::size_t size = buf.size();
    buf.push_back(0x2A);  // a following byte must not be taken
    i64 got = 0;
    EXPECT_EQ(decodeVLong(buf, got), size) << v;
    EXPECT_EQ(got, v);
    for (std::size_t cut = 0; cut < size; ++cut) {
      EXPECT_EQ(decodeVLong(ByteSpan(buf).first(cut), got), 0u) << v << " cut " << cut;
    }
  }
  for (int b = 0; b < 256; ++b) {
    Bytes buf(10, 0x5A);
    buf[0] = static_cast<u8>(b);
    MemorySource src(buf);
    const i64 expected = readVLong(src);
    i64 got = 0;
    EXPECT_EQ(decodeVLong(buf, got), src.position()) << "first byte " << b;
    EXPECT_EQ(got, expected) << "first byte " << b;
  }
}

TEST(VarintTest, VIntRejectsOutOfRange) {
  const Bytes big = encode(static_cast<i64>(1) << 40);
  MemorySource src(big);
  EXPECT_THROW(readVInt(src), FormatError);
}

}  // namespace
}  // namespace scishuffle
