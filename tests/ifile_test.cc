#include <gtest/gtest.h>

#include "hadoop/ifile.h"
#include "testing_support.h"

namespace scishuffle::hadoop {
namespace {

TEST(IFileTest, EmptyFileIsJustTheTrailer) {
  IFileWriter writer;
  const Bytes file = writer.close();
  // Two -1 vints + 4-byte CRC.
  EXPECT_EQ(file.size(), kIFileTrailerSize);
  IFileReader reader(file);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(IFileTest, PerRecordOverheadMatchesThePaperArithmetic) {
  // §I reconstruction: key 20 bytes + value 4 bytes + 2 bytes framing = 26
  // bytes per record; 10^6 records + 6-byte trailer = 26,000,006 bytes.
  EXPECT_EQ(ifileRecordOverhead(20, 4), 2u);

  IFileWriter writer;
  const Bytes key(20, 0xAB);
  const Bytes value(4, 0xCD);
  const int records = 1000;
  for (int i = 0; i < records; ++i) writer.append(key, value);
  const Bytes file = writer.close();
  EXPECT_EQ(file.size(), static_cast<std::size_t>(records) * 26 + 6);
}

TEST(IFileTest, NamedKeyOverheadMatchesIntro) {
  // Key with Text("windspeed1") = 11 + 16 coord bytes = 27; record = 33.
  IFileWriter writer;
  const Bytes key(27, 1);
  const Bytes value(4, 2);
  writer.append(key, value);
  const Bytes file = writer.close();
  EXPECT_EQ(file.size(), 33u + 6u);
}

TEST(IFileTest, RoundTripsRecords) {
  IFileWriter writer;
  std::vector<KeyValue> records;
  for (u32 i = 0; i < 500; ++i) {
    KeyValue kv{testing::randomBytes(i % 40, i), testing::randomBytes((i * 7) % 100, i + 1)};
    writer.append(kv.key, kv.value);
    records.push_back(std::move(kv));
  }
  EXPECT_EQ(writer.records(), 500u);
  const Bytes file = writer.close();

  IFileReader reader(file);
  for (const auto& expected : records) {
    const auto got = reader.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(Bytes(got->key.begin(), got->key.end()), expected.key);
    EXPECT_EQ(Bytes(got->value.begin(), got->value.end()), expected.value);
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());  // stable after EOF
}

TEST(IFileTest, ChecksumDetectsCorruption) {
  IFileWriter writer;
  writer.append(Bytes{1, 2, 3}, Bytes{4});
  Bytes file = writer.close();
  file[2] ^= 0x80;
  EXPECT_THROW(IFileReader{file}, FormatError);
}

TEST(IFileTest, AppendAfterCloseIsALogicError) {
  IFileWriter writer;
  (void)writer.close();
  EXPECT_THROW(writer.append(Bytes{1}, Bytes{2}), std::logic_error);
}

}  // namespace
}  // namespace scishuffle::hadoop
