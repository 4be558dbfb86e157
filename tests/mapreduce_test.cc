// End-to-end tests of the mini-Hadoop engine with classic workloads
// (word count, sum-by-key) across codec / combiner / spill / slot settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <tuple>

#include "compress/codec.h"
#include "grid/dataset.h"
#include "hadoop/reference.h"
#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "obs/trace.h"
#include "scikey/sliding_query.h"
#include "testing_support.h"

namespace scishuffle::hadoop {
namespace {

Bytes toBytes(const std::string& s) {
  return Bytes(reinterpret_cast<const u8*>(s.data()),
               reinterpret_cast<const u8*>(s.data()) + s.size());
}

std::string toString(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

Bytes encodeI64(i64 v) {
  Bytes out;
  MemorySink sink(out);
  writeI64(sink, v);
  return out;
}

i64 decodeI64(const Bytes& b) {
  MemorySource src(b);
  return readI64(src);
}

/// Deterministic synthetic corpus: `docs` documents of `words` words drawn
/// from a small vocabulary.
std::vector<std::vector<std::string>> corpus(int docs, int words, u32 seed) {
  const std::vector<std::string> vocab = {"the",  "windspeed", "grid",   "key",  "value",
                                          "map",  "reduce",    "hadoop", "sci",  "curve"};
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, vocab.size() - 1);
  std::vector<std::vector<std::string>> out(static_cast<std::size_t>(docs));
  for (auto& doc : out) {
    doc.reserve(static_cast<std::size_t>(words));
    for (int w = 0; w < words; ++w) doc.push_back(vocab[pick(rng)]);
  }
  return out;
}

std::map<std::string, i64> expectedCounts(const std::vector<std::vector<std::string>>& docs) {
  std::map<std::string, i64> counts;
  for (const auto& doc : docs) {
    for (const auto& w : doc) ++counts[w];
  }
  return counts;
}

std::map<std::string, i64> actualCounts(const JobResult& result) {
  std::map<std::string, i64> counts;
  for (const auto& out : result.outputs) {
    for (const auto& kv : out) {
      const auto [it, inserted] = counts.emplace(toString(kv.key), decodeI64(kv.value));
      EXPECT_TRUE(inserted) << "key emitted by two reducers: " << toString(kv.key);
    }
  }
  return counts;
}

JobResult runWordCount(const std::vector<std::vector<std::string>>& docs, JobConfig config) {
  std::vector<MapTask> tasks;
  for (const auto& doc : docs) {
    tasks.push_back(MapTask{[&doc](const EmitFn& emit) {
      for (const auto& w : doc) emit(toBytes(w), encodeI64(1));
    }});
  }
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  return runJob(config, tasks, reduce);
}

// (reducers, map slots, codec, use combiner, spill buffer bytes)
using EngineCase = std::tuple<int, int, std::string, bool, std::size_t>;

class EngineMatrix : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineMatrix, WordCountIsExact) {
  const auto& [reducers, slots, codec, useCombiner, spillBytes] = GetParam();
  const auto docs = corpus(9, 500, 1234);

  JobConfig config;
  config.num_reducers = reducers;
  config.map_slots = slots;
  config.intermediate_codec = codec;
  config.spill_buffer_bytes = spillBytes;
  if (useCombiner) {
    config.combiner = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
      i64 sum = 0;
      for (const auto& v : values) sum += decodeI64(v);
      emit(key, encodeI64(sum));
    };
  }

  const JobResult result = runWordCount(docs, config);
  EXPECT_EQ(actualCounts(result), expectedCounts(docs));
  EXPECT_EQ(result.counters.get(counter::kMapOutputRecords), 9u * 500u);
  if (useCombiner) {
    EXPECT_LT(result.counters.get(counter::kReduceInputRecords),
              result.counters.get(counter::kMapOutputRecords));
  }
  // Conservation: everything materialized got shuffled.
  EXPECT_EQ(result.counters.get(counter::kMapOutputMaterializedBytes),
            result.counters.get(counter::kReduceShuffleBytes));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineMatrix,
    ::testing::Values(EngineCase{1, 1, "null", false, 16u << 20},
                      EngineCase{4, 3, "null", false, 16u << 20},
                      EngineCase{4, 3, "null", true, 16u << 20},
                      EngineCase{3, 2, "gzipish", false, 16u << 20},
                      EngineCase{3, 2, "gzipish", true, 4096},  // many spills
                      EngineCase{2, 4, "bzip2ish", false, 16u << 20},
                      EngineCase{5, 10, "transform+gzipish", false, 2048},
                      EngineCase{2, 2, "null", true, 1024}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      std::string codec = std::get<2>(info.param);
      for (auto& c : codec) {
        if (c == '+') c = '_';
      }
      return "r" + std::to_string(std::get<0>(info.param)) + "s" +
             std::to_string(std::get<1>(info.param)) + "_" + codec +
             (std::get<3>(info.param) ? "_comb" : "") + "_b" +
             std::to_string(std::get<4>(info.param));
    });

TEST(EngineTest, SortedOrderWithinReducer) {
  const auto docs = corpus(4, 300, 99);
  JobConfig config;
  config.num_reducers = 2;
  const JobResult result = runWordCount(docs, config);
  for (const auto& out : result.outputs) {
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_TRUE(lexicographicLess(out[i - 1].key, out[i].key));
    }
  }
}

TEST(EngineTest, CustomRouterSplitsRecords) {
  // A router that duplicates each record to all partitions (degenerate
  // "aggregate key spanning every reducer").
  JobConfig config;
  config.num_reducers = 3;
  config.router = [](KeyValue&& kv, int parts) {
    std::vector<std::pair<int, KeyValue>> out;
    for (int p = 0; p < parts; ++p) out.emplace_back(p, kv);
    return out;
  };
  std::vector<MapTask> tasks{MapTask{[](const EmitFn& emit) {
    emit(toBytes("k"), encodeI64(5));
  }}};
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    emit(key, encodeI64(static_cast<i64>(values.size())));
  };
  const JobResult result = runJob(config, tasks, reduce);
  int nonEmpty = 0;
  for (const auto& out : result.outputs) {
    if (!out.empty()) ++nonEmpty;
  }
  EXPECT_EQ(nonEmpty, 3);
}

TEST(EngineTest, MergePassesTriggerWhenSegmentsExceedFactor) {
  // 30 mappers, merge factor 4 -> the reducer must run extra merge passes.
  JobConfig config;
  config.num_reducers = 1;
  config.merge_factor = 4;
  config.map_slots = 8;
  std::vector<MapTask> tasks;
  for (int m = 0; m < 30; ++m) {
    tasks.push_back(MapTask{[m](const EmitFn& emit) {
      emit(toBytes("key" + std::to_string(m % 7)), encodeI64(m));
    }});
  }
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  const JobResult result = runJob(config, tasks, reduce);
  EXPECT_GT(result.counters.get(counter::kReduceMergePasses), 0u);
  EXPECT_GT(result.counters.get(counter::kReduceMergeMaterializedBytes), 0u);
  i64 total = 0;
  for (const auto& out : result.outputs) {
    for (const auto& kv : out) total += decodeI64(kv.value);
  }
  EXPECT_EQ(total, 29 * 30 / 2);
}

TEST(EngineTest, MapperExceptionPropagates) {
  JobConfig config;
  std::vector<MapTask> tasks{MapTask{[](const EmitFn&) { throw std::runtime_error("boom"); }}};
  const ReduceFn reduce = [](const Bytes&, std::vector<Bytes>&, const EmitFn&) {};
  EXPECT_THROW(runJob(config, tasks, reduce), std::runtime_error);
}

TEST(EngineTest, FlakyMapTaskSucceedsWithRetries) {
  JobConfig config;
  config.max_task_attempts = 3;
  config.map_slots = 1;  // deterministic attempt ordering
  auto failures = std::make_shared<std::atomic<int>>(0);
  std::vector<MapTask> tasks{MapTask{[failures](const EmitFn& emit) {
    // First two attempts die *after* emitting — retries must discard the
    // partial output or the count would triple.
    emit(toBytes("k"), encodeI64(1));
    if (failures->fetch_add(1) < 2) throw std::runtime_error("transient");
  }}};
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  const JobResult result = runJob(config, tasks, reduce);
  ASSERT_EQ(result.outputs[0].size(), 1u);
  EXPECT_EQ(decodeI64(result.outputs[0][0].value), 1);  // not 3: attempts were discarded
  EXPECT_EQ(failures->load(), 3);
}

TEST(EngineTest, FlakyReduceTaskSucceedsWithRetries) {
  JobConfig config;
  config.max_task_attempts = 2;
  auto failures = std::make_shared<std::atomic<int>>(0);
  std::vector<MapTask> tasks{MapTask{[](const EmitFn& emit) {
    emit(toBytes("a"), encodeI64(7));
  }}};
  const ReduceFn reduce = [failures](const Bytes& key, std::vector<Bytes>& values,
                                     const EmitFn& emit) {
    if (failures->fetch_add(1) < 1) throw std::runtime_error("transient");
    emit(key, values.front());
  };
  const JobResult result = runJob(config, tasks, reduce);
  ASSERT_EQ(result.outputs[0].size(), 1u);
  EXPECT_EQ(decodeI64(result.outputs[0][0].value), 7);
}

TEST(EngineTest, PersistentFailureStillFails) {
  JobConfig config;
  config.max_task_attempts = 3;
  std::vector<MapTask> tasks{MapTask{[](const EmitFn&) { throw std::runtime_error("fatal"); }}};
  const ReduceFn reduce = [](const Bytes&, std::vector<Bytes>&, const EmitFn&) {};
  EXPECT_THROW(runJob(config, tasks, reduce), std::runtime_error);
}

TEST(EngineTest, EmptyJobProducesEmptyOutputs) {
  JobConfig config;
  config.num_reducers = 2;
  const ReduceFn reduce = [](const Bytes&, std::vector<Bytes>&, const EmitFn&) {};
  const JobResult result = runJob(config, {}, reduce);
  EXPECT_EQ(result.outputs.size(), 2u);
  EXPECT_TRUE(result.outputs[0].empty());
  EXPECT_TRUE(result.outputs[1].empty());
}

TEST(EngineTest, ZeroByteRecordsStillSpill) {
  // Records with an empty key and an empty value still occupy the map-side
  // buffer, so the spill threshold must bound them like any other record.
  JobConfig config;
  config.spill_buffer_bytes = 64u << 10;
  config.collect_histograms = true;
  const std::vector<MapTask> tasks{MapTask{[](const EmitFn& emit) {
    for (int i = 0; i < 100'000; ++i) emit(Bytes{}, Bytes{});
  }}};
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    emit(key, encodeI64(static_cast<i64>(values.size())));
  };
  const JobResult result = runJob(config, tasks, reduce);
  const obs::HistogramSnapshot* spills = result.telemetry.findHistogram("spill_us");
  ASSERT_NE(spills, nullptr);
  EXPECT_GE(spills->count, 2u);
  EXPECT_EQ(result.outputs, referenceOutputs(config, tasks, reduce));
}

TEST(EngineTest, ReduceTaskSpanCarriesInputRecords) {
  // The reduce_task span names how many records its task received, so a
  // trace alone shows reducer skew.
  JobConfig config;
  config.num_reducers = 2;
  const MapTask task{[](const EmitFn& emit) {
    for (int i = 0; i < 50; ++i) emit(toBytes("k" + std::to_string(i % 6)), encodeI64(i));
  }};
  const MapTaskExecution mapped = executeMapTask(config, nullptr, nullptr, task, 0);
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    emit(key, encodeI64(static_cast<i64>(values.size())));
  };
  for (int r = 0; r < config.num_reducers; ++r) {
    obs::TraceRecorder recorder;
    obs::setActiveTrace(&recorder);
    const ReduceTaskExecution exec = executeReduceTask(
        config, nullptr, nullptr, reduce, {mapped.output.segments[static_cast<std::size_t>(r)]}, r);
    obs::setActiveTrace(nullptr);
    const u64 records = exec.counters.get(counter::kReduceInputRecords);
    EXPECT_GT(records, 0u);
    const std::vector<obs::Span> spans = recorder.snapshot();
    const auto span = std::find_if(spans.begin(), spans.end(),
                                   [](const obs::Span& s) { return s.name == "reduce_task"; });
    ASSERT_NE(span, spans.end());
    EXPECT_NE(std::find(span->args.begin(), span->args.end(),
                        std::pair<std::string, u64>{"input_records", records}),
              span->args.end());
  }
}

// ------------------------------------------------------ golden map output
//
// A map task's segments are the bytes every reducer fetches, so any
// restructuring of the map-side collect/sort/combine/spill path must
// reproduce them exactly. The digests below were recorded from the buffer
// that held each record as a KeyValue, before the byte arena replaced it; a
// change that moves a single segment byte, or a map-output counter, under
// any case fails here.

/// 3000 records over 130 distinct keys (a corpus word plus a suffix), each
/// valued by its position: equal keys carry distinct values, so a sort that
/// is not stable moves bytes.
MapTask positionedWords() {
  return MapTask{[](const EmitFn& emit) {
    const auto docs = corpus(1, 3000, 4242);
    for (std::size_t i = 0; i < docs[0].size(); ++i) {
      emit(toBytes(docs[0][i] + std::to_string(i % 13)), encodeI64(static_cast<i64>(i)));
    }
  }};
}

/// Every mix of empty and non-empty key and value.
MapTask emptyFieldRecords() {
  return MapTask{[](const EmitFn& emit) {
    for (int i = 0; i < 400; ++i) {
      const Bytes key = i % 2 == 0 ? Bytes{} : toBytes("k" + std::to_string(i % 7));
      const Bytes value = i % 3 == 0 ? Bytes{} : encodeI64(i);
      emit(key, value);
    }
  }};
}

struct MapOutputCase {
  const char* name;
  JobConfig config;
  MapTask task;
};

std::vector<MapOutputCase> mapOutputCases() {
  std::vector<MapOutputCase> cases;
  JobConfig base;
  base.num_reducers = 3;
  cases.push_back({"null_one_spill", base, positionedWords()});

  JobConfig multiSpill = base;
  multiSpill.intermediate_codec = "gzipish";
  multiSpill.spill_buffer_bytes = 2048;
  cases.push_back({"gzipish_multi_spill", multiSpill, positionedWords()});

  JobConfig combined = base;
  combined.spill_buffer_bytes = 2048;
  combined.combiner = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  cases.push_back({"sum_combiner", combined, positionedWords()});

  JobConfig splitting = base;
  splitting.router = [](KeyValue&& kv, int parts) {
    std::vector<std::pair<int, KeyValue>> out;
    for (int p = 0; p < parts; ++p) out.emplace_back(p, kv);
    return out;
  };
  cases.push_back({"splitting_router", splitting, positionedWords()});

  cases.push_back({"empty_fields", base, emptyFieldRecords()});
  return cases;
}

struct GoldenMapOutput {
  const char* name;
  u64 records;
  u64 bytes;
  u64 materialized;
  u64 segment_digests[3];
};

const GoldenMapOutput kGoldenMapOutputs[] = {
    {"null_one_spill",
     3000,
     41740,
     47797,
     {0xab4fb075150245a2ull, 0x943bda992850d707ull, 0xce19e05c9662598eull}},
    {"gzipish_multi_spill",
     3000,
     41740,
     8380,
     {0xbd06f2f3941a2416ull, 0xcfc434933dde0dbeull, 0x077df193ca5c4e6cull}},
    {"sum_combiner",
     3000,
     41740,
     2128,
     {0x06d0a83a117ff89aull, 0x00e6dbb20c6a43f8ull, 0xf195922665ee74b8ull}},
    {"splitting_router",
     9000,
     125220,
     143277,
     {0xca1a57954932ea6eull, 0xca1a57954932ea6eull, 0xca1a57954932ea6eull}},
    {"empty_fields",
     400,
     2528,
     3385,
     {0x3e66967987b591b6ull, 0x502781c96147cfd4ull, 0x1166c64e3da459fbull}},
};

TEST(MapOutputGoldenTest, SegmentDigestsAreUnchanged) {
  const std::vector<MapOutputCase> cases = mapOutputCases();
  ASSERT_EQ(std::size(kGoldenMapOutputs), cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const MapOutputCase& tc = cases[c];
    const GoldenMapOutput& golden = kGoldenMapOutputs[c];
    ASSERT_STREQ(golden.name, tc.name);
    const auto codec = intermediateCodec(tc.config.intermediate_codec);
    const MapTaskExecution exec = executeMapTask(tc.config, codec.get(), nullptr, tc.task, 0);
    ASSERT_EQ(exec.output.segments.size(), std::size(golden.segment_digests));
    for (std::size_t p = 0; p < exec.output.segments.size(); ++p) {
      const u64 digest = testing::fnv1a64(exec.output.segments[p]);
      EXPECT_EQ(digest, golden.segment_digests[p])
          << tc.name << " / partition " << p << ": got 0x" << std::hex << digest << "ull";
    }
    EXPECT_EQ(exec.counters.get(counter::kMapOutputRecords), golden.records) << tc.name;
    EXPECT_EQ(exec.counters.get(counter::kMapOutputBytes), golden.bytes) << tc.name;
    EXPECT_EQ(exec.counters.get(counter::kMapOutputMaterializedBytes), golden.materialized)
        << tc.name;
  }
}

// ------------------------------------------------------ golden reduce output
//
// The reduce side (merge, grouping, reduce) must hand every job the same
// records in the same order. referenceOutputs runs the same groupers, so it
// cannot catch a grouper regression; these digests and counters were
// recorded while the merge still returned owning records, before it lent
// views into the decoded block.

/// Reduce that concatenates a group's values in delivery order.
void concatReduce(const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
  Bytes joined;
  for (const Bytes& v : values) joined.insert(joined.end(), v.begin(), v.end());
  emit(key, std::move(joined));
}

/// Reduce that emits every value in delivery order, moving each one out.
void identityReduce(const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
  for (Bytes& v : values) emit(key, std::move(v));
}

/// Values of 24-84 B and every 37th 150 B, with empty keys and empty values
/// mixed in: with 64-byte blocks about 70 % of records straddle a block end.
MapTask straddlingRecords(u32 seed) {
  return MapTask{[seed](const EmitFn& emit) {
    for (u32 i = 0; i < 300; ++i) {
      const Bytes key = i % 5 == 0 ? Bytes{} : toBytes("k" + std::to_string((i * seed) % 23));
      const std::size_t valueBytes = i % 37 == 0 ? 150 : 24 + (i * 11 + seed) % 61;
      emit(key, i % 7 == 0 ? Bytes{} : testing::randomBytes(valueBytes, seed * 1000 + i));
    }
  }};
}

/// Nine keys per map task, each valued by (task, position), in a count that
/// differs per task so the merge passes see segments of different sizes.
MapTask taggedRecords(int task) {
  return MapTask{[task](const EmitFn& emit) {
    for (int j = 0; j < 20 + task * 7; ++j) {
      emit(toBytes("key" + std::to_string(j % 9)), encodeI64(task * 1000 + j));
    }
  }};
}

grid::Variable medianInput() {
  grid::Variable v("pressure", grid::DataType::kInt32, grid::Shape({24, 18}));
  grid::gen::fillRandomInt(v, 42, 1000);
  return v;
}

struct ReduceCase {
  const char* name;
  JobConfig config;
  std::vector<MapTask> tasks;
  ReduceFn reduce;
};

std::vector<ReduceCase> reduceCases(const grid::Variable& medianGrid) {
  std::vector<ReduceCase> cases;
  JobConfig base;
  base.num_reducers = 3;
  {
    std::vector<MapTask> tasks;
    for (u32 seed = 1; seed <= 4; ++seed) {
      tasks.push_back(MapTask{[seed](const EmitFn& emit) {
        // Groups of 1 to ~100 records: suffixes repeat at a per-task period.
        const auto docs = corpus(1, 800, seed);
        for (std::size_t i = 0; i < docs[0].size(); ++i) {
          const std::string key = docs[0][i] + std::to_string(i % (3 * seed));
          emit(toBytes(key), encodeI64(static_cast<i64>(i)));
        }
      }});
    }
    const ReduceFn sum = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
      i64 total = 0;
      for (const auto& v : values) total += decodeI64(v);
      emit(key, encodeI64(total));
    };
    cases.push_back({"null_default", base, std::move(tasks), sum});
  }
  {
    JobConfig config = base;
    config.num_reducers = 2;
    config.intermediate_codec = "gzipish";
    config.shuffle_block_bytes = 64;
    cases.push_back({"gzipish_64b_blocks",
                     config,
                     {straddlingRecords(3), straddlingRecords(5), straddlingRecords(7)},
                     concatReduce});
  }
  {
    JobConfig config = base;
    config.num_reducers = 2;
    config.merge_factor = 4;
    config.map_slots = 3;
    std::vector<MapTask> tasks;
    for (int t = 0; t < 12; ++t) tasks.push_back(taggedRecords(t));
    cases.push_back({"merge_factor_4", config, std::move(tasks), identityReduce});
  }
  for (const bool reaggregate : {false, true}) {
    scikey::SlidingQueryConfig query;
    query.num_mappers = 4;
    query.reaggregate_output = reaggregate;
    JobConfig config = base;
    config.map_slots = 2;
    scikey::PreparedJob job = scikey::buildAggregateSlidingJob(medianGrid, query, config);
    cases.push_back({reaggregate ? "aggregate_median_reaggregated" : "aggregate_median",
                     job.job, std::move(job.map_tasks), job.reduce});
  }
  return cases;
}

/// fnv1a64 over every reducer's output in order, each record framed by its
/// lengths so that a byte moving between key and value changes the digest.
u64 outputDigest(const JobResult& result) {
  Bytes framed;
  MemorySink sink(framed);
  for (const auto& reducerOutput : result.outputs) {
    writeU32(sink, static_cast<u32>(reducerOutput.size()));
    for (const KeyValue& kv : reducerOutput) {
      writeU32(sink, static_cast<u32>(kv.key.size()));
      sink.write(kv.key);
      writeU32(sink, static_cast<u32>(kv.value.size()));
      sink.write(kv.value);
    }
  }
  return testing::fnv1a64(framed);
}

struct GoldenReduceOutput {
  const char* name;
  u64 output_digest;
  u64 input_groups;
  u64 input_records;
  u64 output_records;
  u64 merge_passes;
  u64 overlap_splits;
};

// The aggregate rows also pin where the router cuts the curve: they were
// re-recorded when the cuts moved from equal lattice ranges to equal shares
// of the domain's cells.
const GoldenReduceOutput kGoldenReduceOutputs[] = {
    {"null_default", 0x234ba1fd98434875ull, 120, 3200, 120, 0, 0},
    {"gzipish_64b_blocks", 0x9b6aa60602b8829full, 24, 900, 24, 0, 0},
    {"merge_factor_4", 0x0635ed6838d463b8ull, 9, 702, 702, 6, 0},
    {"aggregate_median", 0x7384a2e7670653e8ull, 271, 1805, 271, 0, 1074},
    {"aggregate_median_reaggregated", 0x525e8c035806c24aull, 271, 1805, 15, 0, 1074},
};

TEST(ReduceGoldenTest, OutputDigestsAndCountersAreUnchanged) {
  registerBuiltinCodecs();
  const grid::Variable medianGrid = medianInput();
  const std::vector<ReduceCase> cases = reduceCases(medianGrid);
  ASSERT_EQ(std::size(kGoldenReduceOutputs), cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const ReduceCase& tc = cases[c];
    const GoldenReduceOutput& golden = kGoldenReduceOutputs[c];
    ASSERT_STREQ(golden.name, tc.name);
    const JobResult result = runJob(tc.config, tc.tasks, tc.reduce);
    const u64 digest = outputDigest(result);
    EXPECT_EQ(digest, golden.output_digest) << tc.name << ": got 0x" << std::hex << digest << "ull";
    EXPECT_EQ(result.counters.get(counter::kReduceInputGroups), golden.input_groups) << tc.name;
    EXPECT_EQ(result.counters.get(counter::kReduceInputRecords), golden.input_records) << tc.name;
    EXPECT_EQ(result.counters.get(counter::kReduceOutputRecords), golden.output_records)
        << tc.name;
    EXPECT_EQ(result.counters.get(counter::kReduceMergePasses), golden.merge_passes) << tc.name;
    EXPECT_EQ(result.counters.get(counter::kKeySplitsOverlap), golden.overlap_splits) << tc.name;
  }
}

}  // namespace
}  // namespace scishuffle::hadoop
