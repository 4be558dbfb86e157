// Adversarial-input tests: corrupt or random bytes fed to every decoder must
// raise FormatError (or round-trip if the corruption missed everything that
// matters) — never crash, hang, or allocate unboundedly. Plus a model-based
// randomized engine test against a trivial in-memory shuffle.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>

#include "compress/bzip2ish.h"
#include "compress/deflate.h"
#include "hadoop/ifile.h"
#include "hadoop/reference.h"
#include "hadoop/runtime.h"
#include "hadoop/sequence_file.h"
#include "io/streams.h"
#include "testing_support.h"
#include "transform/transform_codec.h"

namespace scishuffle {
namespace {

template <typename F>
void expectNoCrash(F&& decode, const Bytes& original) {
  try {
    const Bytes out = decode();
    // If it decoded, it must have decoded *correctly* (CRC guards this).
    EXPECT_EQ(out, original);
  } catch (const FormatError&) {
    // expected for most corruptions
  } catch (const std::length_error&) {
    // oversized resize request detected by the standard library — acceptable
  } catch (const std::bad_alloc&) {
    FAIL() << "corrupt input triggered unbounded allocation";
  }
}

class CodecFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(CodecFuzz, SingleByteCorruptionNeverCrashes) {
  const u32 seed = GetParam();
  std::mt19937 rng(seed);
  const Bytes data = testing::gridWalkTriples(12, 12, 12);
  registerTransformCodecs();
  for (const char* name : {"gzipish", "bzip2ish", "transform+gzipish", "transform+bzip2ish"}) {
    const auto codec = CodecRegistry::instance().create(name);
    Bytes compressed = codec->compress(data);
    std::uniform_int_distribution<std::size_t> pick(0, compressed.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    for (int k = 0; k < 20; ++k) {
      Bytes corrupt = compressed;
      corrupt[pick(rng)] ^= static_cast<u8>(1 << bit(rng));
      expectNoCrash([&] { return codec->decompress(corrupt); }, data);
    }
    // Truncations.
    for (int k = 0; k < 10; ++k) {
      Bytes truncated(compressed.begin(),
                      compressed.begin() + static_cast<std::ptrdiff_t>(pick(rng)));
      expectNoCrash([&] { return codec->decompress(truncated); }, data);
    }
  }
}

TEST_P(CodecFuzz, RandomGarbageNeverCrashes) {
  const u32 seed = GetParam();
  registerTransformCodecs();
  const Bytes garbage = testing::randomBytes(4096, seed);
  for (const char* name : {"gzipish", "bzip2ish"}) {
    const auto codec = CodecRegistry::instance().create(name);
    expectNoCrash([&] { return codec->decompress(garbage); }, {});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range(0u, 6u));

class IFileFuzz : public ::testing::TestWithParam<u32> {};

/// What one read of a record stream saw: every record up to the end, then the
/// FormatError that stopped it ("" at the end marker).
struct RecordRead {
  std::vector<hadoop::KeyValue> records;
  std::string error;
};

RecordRead readRecords(ByteSource& source) {
  RecordRead read;
  hadoop::IFileStreamReader reader(source);
  try {
    while (const auto record = reader.next()) {
      read.records.push_back({Bytes(record->key.begin(), record->key.end()),
                              Bytes(record->value.begin(), record->value.end())});
    }
  } catch (const FormatError& e) {
    read.error = e.what();
  }
  return read;
}

/// Reads a record stream from memory and again through 7-byte null-codec
/// blocks, where most records straddle a block end: both reads must yield
/// the same records and stop with the same error at the same offset.
void expectBlockReadMatchesPlain(ByteSpan body) {
  MemorySource plain(body);
  const Bytes framed = blockCompress(body, nullptr, 7);
  BlockDecodeSource blocks(framed, nullptr);
  const RecordRead expected = readRecords(plain);
  const RecordRead got = readRecords(blocks);
  EXPECT_TRUE(got.records == expected.records);
  EXPECT_EQ(got.error, expected.error);
}

TEST_P(IFileFuzz, CorruptionNeverCrashes) {
  std::mt19937 rng(GetParam());
  hadoop::IFileWriter writer;
  for (int i = 0; i < 50; ++i) {
    writer.append(testing::randomBytes(static_cast<std::size_t>(i % 17), GetParam() + i),
                  testing::randomBytes(static_cast<std::size_t>((i * 3) % 29), GetParam() - i));
  }
  const Bytes file = writer.close();
  std::uniform_int_distribution<std::size_t> pick(0, file.size() - 1);
  for (int k = 0; k < 30; ++k) {
    Bytes corrupt = file;
    corrupt[pick(rng)] ^= 0xFF;
    try {
      hadoop::IFileReader reader(corrupt);
      while (reader.next()) {
      }
    } catch (const FormatError&) {
    }
    // The record stream without its CRC trailer, so the records are read.
    const ByteSpan body = ByteSpan(corrupt).first(corrupt.size() - 4);
    expectBlockReadMatchesPlain(body);
    expectBlockReadMatchesPlain(body.first(pick(rng) % body.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IFileFuzz, ::testing::Range(0u, 6u));

TEST(SequenceFileFuzz, RandomCorruptionWithRecovery) {
  std::mt19937 rng(99);
  Bytes file;
  MemorySink sink(file);
  hadoop::SequenceFileWriter writer(sink, hadoop::SequenceFileHeader{});
  for (int i = 0; i < 200; ++i) {
    writer.append(testing::randomBytes(8, static_cast<u32>(i)),
                  testing::randomBytes(40, static_cast<u32>(i) + 1));
  }
  writer.close();

  std::uniform_int_distribution<std::size_t> pick(40, file.size() - 1);
  for (int k = 0; k < 20; ++k) {
    Bytes corrupt = file;
    corrupt[pick(rng)] ^= 0xFF;
    hadoop::SequenceFileReader reader(corrupt);
    int records = 0;
    for (;;) {
      try {
        if (!reader.next()) break;
        ++records;
      } catch (const FormatError&) {
        if (!reader.seekToNextSync()) break;
      } catch (const std::length_error&) {
        if (!reader.seekToNextSync()) break;
      }
    }
    EXPECT_GT(records, 0);
  }
}

// ---- Model-based engine test: random jobs vs the reference evaluator, plus
// a hand-rolled key -> total map as an independent check on the evaluator.

struct RandomJob {
  std::vector<std::vector<hadoop::KeyValue>> taskRecords;
};

RandomJob makeRandomJob(u32 seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> numTasks(0, 6);
  std::uniform_int_distribution<int> numRecords(0, 300);
  std::uniform_int_distribution<int> keyLen(0, 6);
  std::uniform_int_distribution<int> valueLen(0, 12);
  std::uniform_int_distribution<int> byte(0, 3);  // tiny alphabet -> collisions

  RandomJob job;
  job.taskRecords.resize(static_cast<std::size_t>(numTasks(rng)));
  for (auto& records : job.taskRecords) {
    const int n = numRecords(rng);
    for (int i = 0; i < n; ++i) {
      hadoop::KeyValue kv;
      kv.key.resize(static_cast<std::size_t>(keyLen(rng)));
      for (auto& b : kv.key) b = static_cast<u8>(byte(rng));
      kv.value.resize(static_cast<std::size_t>(valueLen(rng)));
      for (auto& b : kv.value) b = static_cast<u8>(byte(rng));
      records.push_back(std::move(kv));
    }
  }
  return job;
}

/// Reference semantics: group values by key (sorted), concatenate value
/// lengths as the "reduction".
std::map<Bytes, u64> referenceResult(const RandomJob& job) {
  std::map<Bytes, u64> out;
  for (const auto& records : job.taskRecords) {
    for (const auto& kv : records) out[kv.key] += kv.value.size() + 1;
  }
  return out;
}

class EngineModelFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(EngineModelFuzz, MatchesReferenceShuffle) {
  const u32 seed = GetParam();
  const RandomJob job = makeRandomJob(seed);

  std::mt19937 rng(seed ^ 0xABCD);
  hadoop::JobConfig config;
  config.num_reducers = std::uniform_int_distribution<int>(1, 5)(rng);
  config.map_slots = std::uniform_int_distribution<int>(1, 4)(rng);
  config.spill_buffer_bytes = static_cast<std::size_t>(
      std::uniform_int_distribution<int>(64, 4096)(rng));
  const char* codecs[] = {"null", "gzipish", "bzip2ish", "transform+gzipish"};
  config.intermediate_codec = codecs[seed % 4];

  std::vector<hadoop::MapTask> tasks;
  for (const auto& records : job.taskRecords) {
    tasks.push_back(hadoop::MapTask{[&records](const hadoop::EmitFn& emit) {
      for (const auto& kv : records) emit(kv.key, kv.value);
    }});
  }
  // Emits the 8-byte total, then the values in the order the group delivered
  // them: at most 6 map tasks never trigger an intermediate merge pass, so
  // referenceOutputs guarantees that order too, and a changed merge
  // tie-break shows up as a difference.
  const hadoop::ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values,
                                     const hadoop::EmitFn& emit) {
    u64 total = 0;
    for (const auto& v : values) total += v.size() + 1;
    Bytes out(8);
    for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] = static_cast<u8>(total >> (8 * i));
    for (const auto& v : values) out.insert(out.end(), v.begin(), v.end());
    emit(key, std::move(out));
  };

  const auto result = hadoop::runJob(config, tasks, reduce);
  // Exact: every reducer's records, in emit order.
  ASSERT_LE(tasks.size(), static_cast<std::size_t>(config.merge_factor));
  EXPECT_EQ(result.outputs, hadoop::referenceOutputs(config, tasks, reduce)) << "seed " << seed;
  std::map<Bytes, u64> got;
  for (const auto& part : result.outputs) {
    for (const auto& kv : part) {
      u64 total = 0;
      for (int i = 7; i >= 0; --i) total = (total << 8) | kv.value[static_cast<std::size_t>(i)];
      EXPECT_TRUE(got.emplace(kv.key, total).second) << "key reduced twice";
    }
  }
  EXPECT_EQ(got, referenceResult(job)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineModelFuzz, ::testing::Range(0u, 24u));

}  // namespace
}  // namespace scishuffle
