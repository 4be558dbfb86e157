// Block-framed codec container: round-trips across every registered codec
// and block size, corruption detection, parallel/serial byte identity, codec
// work run by the thread waiting for it, the streaming merge's memory bound,
// and a thread-pool stress run of the pipelined shuffle against the
// reference evaluator.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "compress/block_format.h"
#include "hadoop/reference.h"
#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "testing_support.h"
#include "transform/transform_codec.h"

namespace scishuffle {
namespace {

Bytes patternedData(std::size_t n, u32 seed) {
  // Compressible but not trivial: ramps with seeded noise.
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> noise(0, 7);
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<u8>((i / 7 + noise(rng)) & 0xFF);
  }
  return data;
}

std::vector<std::string> allCodecNames() {
  registerTransformCodecs();
  return CodecRegistry::instance().names();
}

class RoundTrip : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(RoundTrip, WriterReaderRoundTripsInOddChunks) {
  const auto& [codecName, blockBytes] = GetParam();
  const auto codec = CodecRegistry::instance().create(codecName);
  const Bytes data = patternedData(40'000, 42);

  BlockCompressedWriter writer(codec.get(), blockBytes);
  std::size_t pos = 0;
  std::size_t chunk = 1;
  while (pos < data.size()) {
    const std::size_t take = std::min(chunk, data.size() - pos);
    writer.write(ByteSpan(data).subspan(pos, take));
    pos += take;
    chunk = chunk * 2 + 1;  // uneven chunks straddle block boundaries
  }
  const Bytes stream = writer.close();

  BlockCompressedReader reader(stream, codec.get());
  Bytes decoded;
  while (auto block = reader.nextBlock()) {
    EXPECT_LE(block->size(), blockBytes);
    decoded.insert(decoded.end(), block->begin(), block->end());
  }
  EXPECT_EQ(decoded, data);
  EXPECT_EQ(reader.blocksRead(), (data.size() + blockBytes - 1) / blockBytes);

  // The streaming source sees the same bytes and stays block-bounded.
  BlockDecodeSource source(stream, codec.get());
  EXPECT_EQ(source.readAll(), data);
  EXPECT_LE(source.residentPeakBytes(), blockBytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAndBlockSizes, RoundTrip,
    ::testing::Combine(::testing::ValuesIn(allCodecNames()),
                       ::testing::Values(std::size_t{1}, std::size_t{4} << 10,
                                         std::size_t{256} << 10, std::size_t{1} << 20)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::size_t>>& info) {
      std::string codec = std::get<0>(info.param);
      for (auto& c : codec) {
        if (c == '+') c = '_';
      }
      return codec + "_b" + std::to_string(std::get<1>(info.param));
    });

TEST(BlockFormatTest, EmptyStreamRoundTrips) {
  BlockCompressedWriter writer(nullptr);
  const Bytes stream = writer.close();
  BlockCompressedReader reader(stream, nullptr);
  EXPECT_EQ(reader.nextBlock(), std::nullopt);
  EXPECT_TRUE(reader.done());
}

TEST(BlockFormatTest, NullCodecPointerStoresBlocksVerbatim) {
  const Bytes data = patternedData(10'000, 7);
  const Bytes stream = blockCompress(data, nullptr, 4096);
  EXPECT_EQ(blockDecompressAll(stream, nullptr), data);
}

TEST(BlockFormatTest, ParallelCompressionIsByteIdenticalToSerial) {
  const auto codec = CodecRegistry::instance().create("gzipish");
  const Bytes data = patternedData(300'000, 5);
  const Bytes serial = blockCompress(data, codec.get(), 16 << 10);
  ThreadPool pool(4);
  u64 cpuUs = 0;
  const Bytes parallel = blockCompress(data, codec.get(), 16 << 10, &pool, &cpuUs);
  EXPECT_EQ(parallel, serial);
  EXPECT_GT(cpuUs, 0u);
  EXPECT_EQ(blockDecompressAll(parallel, codec.get()), data);
}

TEST(BlockFormatTest, DecodeAheadSourceMatchesAndStaysBounded) {
  const auto codec = CodecRegistry::instance().create("gzipish");
  const Bytes data = patternedData(200'000, 9);
  constexpr std::size_t kBlock = 8 << 10;
  const Bytes stream = blockCompress(data, codec.get(), kBlock);
  ThreadPool pool(3);
  BlockDecodeSource source(stream, codec.get(), &pool);
  EXPECT_EQ(source.readAll(), data);
  // The peak is summed from frame lengths when blocks are scheduled, so the
  // bound is exact, and reached: the current block plus two decode-ahead
  // blocks with a codec...
  EXPECT_EQ(source.residentPeakBytes(), 3 * kBlock);
  // ...and plus one without, where decoding is a copy and a CRC.
  const Bytes plain = blockCompress(data, nullptr, kBlock);
  BlockDecodeSource plainSource(plain, nullptr, &pool);
  EXPECT_EQ(plainSource.readAll(), data);
  EXPECT_EQ(plainSource.residentPeakBytes(), 2 * kBlock);
}

// The pool's only worker is parked on a gate for 2 s. Codec work that waits
// for a worker finishes only after the gate opens; work run by the waiting
// thread itself finishes before.
TEST(BlockFormatTest, WaitingWriterCompressesQueuedBlocksItself) {
  const auto codec = CodecRegistry::instance().create("gzipish");
  const Bytes data = patternedData(200'000, 13);
  constexpr std::size_t kBlock = 8 << 10;
  ThreadPool pool(1);
  testing::ParkedWorker parked(pool);
  const Bytes stream = blockCompress(data, codec.get(), kBlock, &pool);
  EXPECT_FALSE(parked.waitedForGate()) << "waited for the gate";
  EXPECT_EQ(stream, blockCompress(data, codec.get(), kBlock));
}

TEST(BlockFormatTest, WaitingReaderDecodesQueuedBlocksItself) {
  const auto codec = CodecRegistry::instance().create("gzipish");
  const Bytes data = patternedData(200'000, 13);
  constexpr std::size_t kBlock = 8 << 10;
  const Bytes stream = blockCompress(data, codec.get(), kBlock);
  ThreadPool pool(1);
  testing::ParkedWorker parked(pool);
  BlockDecodeSource source(stream, codec.get(), &pool);
  EXPECT_EQ(source.readAll(), data);
  EXPECT_FALSE(parked.waitedForGate()) << "waited for the gate";
}

TEST(BlockFormatTest, WindowRunsToTheBlockEndAndKeepsConsumedExact) {
  // Skips through the zero-copy window and reads that cross block ends,
  // mixed, must take the stream's bytes in order, with consumed() counting
  // both (record readers report error offsets from it).
  const Bytes data = patternedData(1000, 3);
  constexpr std::size_t kBlock = 64;
  const Bytes stream = blockCompress(data, nullptr, kBlock);
  ThreadPool pool(2);
  BlockDecodeSource source(stream, nullptr, &pool);
  Bytes got;
  for (std::size_t step = 0; got.size() < data.size(); ++step) {
    const ByteSpan window = source.buffered();
    ASSERT_FALSE(window.empty());
    const std::size_t end = got.size() + window.size();
    EXPECT_TRUE(end % kBlock == 0 || end == data.size()) << "window ends at " << end;
    if (step % 3 == 2) {
      u8 buf[5];
      const std::size_t n = source.read(MutableByteSpan(buf, sizeof buf));
      got.insert(got.end(), buf, buf + n);
    } else {
      const std::size_t n = std::min(window.size(), step % 7 + 1);
      got.insert(got.end(), window.begin(), window.begin() + static_cast<std::ptrdiff_t>(n));
      source.skip(n);
    }
    EXPECT_EQ(source.consumed(), got.size());
  }
  EXPECT_EQ(got, data);
  EXPECT_TRUE(source.buffered().empty());
}

TEST(BlockFormatTest, BadMagicAndVersionThrow) {
  Bytes stream = blockCompress(patternedData(100, 1), nullptr, 64);
  Bytes badMagic = stream;
  badMagic[0] ^= 0xFF;
  EXPECT_THROW(BlockCompressedReader(badMagic, nullptr), FormatError);
  Bytes badVersion = stream;
  badVersion[4] = 99;
  EXPECT_THROW(BlockCompressedReader(badVersion, nullptr), FormatError);
  EXPECT_THROW(BlockCompressedReader(ByteSpan(stream).subspan(0, 3), nullptr), FormatError);
}

TEST(BlockFormatTest, TruncatedStreamThrows) {
  const Bytes stream = blockCompress(patternedData(10'000, 3), nullptr, 1024);
  // Chop off the end marker and the last block's tail.
  for (const std::size_t keep : {stream.size() - 1, stream.size() - 700, std::size_t{6}}) {
    BlockCompressedReader reader(ByteSpan(stream).subspan(0, keep), nullptr);
    EXPECT_THROW(
        {
          while (reader.nextBlock()) {
          }
        },
        FormatError);
  }
}

TEST(BlockFormatTest, FlippedCrcNamesTheBlock) {
  const auto codec = CodecRegistry::instance().create("gzipish");
  Bytes stream = blockCompress(patternedData(5'000, 11), codec.get(), 1024);
  // Flip one bit somewhere in the middle of the stream body: depending on
  // where it lands this corrupts a CRC, a payload, or a header — all must
  // surface as FormatError, never as silent corruption.
  stream[stream.size() / 2] ^= 0x10;
  try {
    BlockCompressedReader reader(stream, codec.get());
    Bytes all;
    while (auto block = reader.nextBlock()) {
      all.insert(all.end(), block->begin(), block->end());
    }
    FAIL() << "corruption was not detected";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("block frame"), std::string::npos) << e.what();
  }
}

// ---- Pipelined shuffle end-to-end -----------------------------------------

using hadoop::EmitFn;
using hadoop::JobConfig;
using hadoop::JobResult;
using hadoop::MapTask;
using hadoop::ReduceFn;
using hadoop::referenceOutputs;

Bytes toBytes(const std::string& s) {
  return Bytes(reinterpret_cast<const u8*>(s.data()),
               reinterpret_cast<const u8*>(s.data()) + s.size());
}

Bytes encodeI64(i64 v) {
  Bytes out;
  MemorySink sink(out);
  writeI64(sink, v);
  return out;
}

struct WordCountJob {
  std::vector<MapTask> tasks;
  ReduceFn reduce;
};

WordCountJob makeWordCountJob(int docs, int words, u32 seed) {
  static const std::vector<std::string> vocab = {"the", "windspeed", "grid", "key",
                                                 "map", "reduce",    "sci",  "curve"};
  WordCountJob job;
  for (int d = 0; d < docs; ++d) {
    job.tasks.push_back(MapTask{[words, seed, d](const EmitFn& emit) {
      std::mt19937 rng(seed + static_cast<u32>(d));
      std::uniform_int_distribution<std::size_t> pick(0, vocab.size() - 1);
      for (int w = 0; w < words; ++w) emit(toBytes(vocab[pick(rng)]), encodeI64(1));
    }});
  }
  job.reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) {
      MemorySource src(v);
      sum += readI64(src);
    }
    emit(key, encodeI64(sum));
  };
  return job;
}

JobResult runWordCountJob(const JobConfig& config, int docs, int words, u32 seed) {
  const WordCountJob job = makeWordCountJob(docs, words, seed);
  return runJob(config, job.tasks, job.reduce);
}

std::map<std::string, u64> recordCounters(const JobResult& result) {
  std::map<std::string, u64> records;
  for (const auto& [name, value] : result.counters.snapshot()) {
    if (name.find("CPU_US") == std::string::npos && name.find("BYTES") == std::string::npos) {
      records[name] = value;
    }
  }
  return records;
}

TEST(PipelinedShuffleTest, EightConcurrentJobsMatchTheReference) {
  JobConfig config;
  config.num_reducers = 3;
  config.map_slots = 4;
  config.intermediate_codec = "gzipish";
  config.spill_buffer_bytes = 2048;  // several spills per task
  config.shuffle_block_bytes = 1 << 10;
  config.codec_threads = 2;
  const WordCountJob job = makeWordCountJob(6, 400, 321);
  const auto reference = referenceOutputs(config, job.tasks, job.reduce);
  const JobResult standalone = runJob(config, job.tasks, job.reduce);
  EXPECT_EQ(standalone.outputs, reference);

  std::vector<JobResult> results(8);
  std::vector<std::thread> jobs;
  for (std::size_t j = 0; j < results.size(); ++j) {
    jobs.emplace_back([&, j] { results[j] = runJob(config, job.tasks, job.reduce); });
  }
  for (auto& t : jobs) t.join();

  for (const JobResult& result : results) {
    EXPECT_EQ(result.outputs, reference);  // bit-identical reduce outputs
    EXPECT_EQ(recordCounters(result), recordCounters(standalone));
  }
}

TEST(PipelinedShuffleTest, StreamingMergeMemoryIsBoundedBySegmentsTimesBlock) {
  // 64 map tasks -> 64 segments into one reducer; ~32 KiB of records per
  // segment but only 1 KiB blocks resident during the merge.
  constexpr int kMaps = 64;
  constexpr std::size_t kBlock = 1 << 10;
  JobConfig config;
  config.num_reducers = 1;
  config.map_slots = 4;
  config.merge_factor = kMaps;  // single merge pass: the direct bound
  config.shuffle_block_bytes = kBlock;
  config.codec_threads = 2;
  std::vector<MapTask> tasks;
  for (int m = 0; m < kMaps; ++m) {
    tasks.push_back(MapTask{[m](const EmitFn& emit) {
      for (int i = 0; i < 512; ++i) {
        emit(toBytes("k" + std::to_string(m * 512 + i)), patternedData(48, static_cast<u32>(i)));
      }
    }});
  }
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    emit(key, values.front());
  };
  // O(segments x block): per segment, the current block plus two
  // decode-ahead blocks with a codec and one without. Every segment spans
  // more blocks than that, so the exact bound is reached.
  for (const auto& [codecName, blocksPerSegment] :
       {std::pair{"null", 2}, std::pair{"gzipish", 3}}) {
    SCOPED_TRACE(codecName);
    config.intermediate_codec = codecName;
    const JobResult result = runJob(config, tasks, reduce);
    const u64 shuffled = result.counters.get(hadoop::counter::kReduceShuffleBytes);
    const u64 peak = result.reduce_tasks[0].merge_resident_peak_bytes;
    EXPECT_EQ(peak, static_cast<u64>(kMaps) * blocksPerSegment * kBlock);
    // ...and genuinely smaller than whole-segment materialization.
    EXPECT_LT(peak, shuffled / 2);
  }
}

TEST(PipelinedShuffleTest, ReportsShuffleOverlapUnderTheMapPhase) {
  JobConfig config;
  config.num_reducers = 2;
  config.map_slots = 1;  // serialize maps so early publishes precede map end
  const JobResult result = runWordCountJob(config, 4, 200, 9);
  EXPECT_GT(result.timings.shuffle_overlap_us, 0u);
}

TEST(PipelinedShuffleTest, MapFailureStillPropagatesThroughTheShuffle) {
  JobConfig config;
  config.num_reducers = 2;
  std::vector<MapTask> tasks{
      MapTask{[](const EmitFn& emit) { emit(toBytes("ok"), encodeI64(1)); }},
      MapTask{[](const EmitFn&) { throw std::runtime_error("boom"); }}};
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    emit(key, values.front());
  };
  EXPECT_THROW(runJob(config, tasks, reduce), std::runtime_error);
}

}  // namespace
}  // namespace scishuffle
