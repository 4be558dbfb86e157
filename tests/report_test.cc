#include <gtest/gtest.h>

#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <thread>

#include "hadoop/report.h"
#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "obs/json.h"
#include "testing_support.h"

namespace scishuffle::hadoop {
namespace {

using scishuffle::obs::JsonValue;
using scishuffle::obs::parseJson;

JobResult runTinyJob(bool withCombiner,
                     const std::function<void(JobConfig&)>& tweak = {}) {
  JobConfig config;
  config.num_reducers = 2;
  if (withCombiner) {
    config.combiner = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
      emit(key, values.front());
    };
  }
  if (tweak) tweak(config);
  std::vector<MapTask> tasks;
  for (int m = 0; m < 3; ++m) {
    tasks.push_back(MapTask{[m](const EmitFn& emit) {
      for (int i = 0; i < 10; ++i) {
        emit(Bytes{static_cast<u8>(i % 4)}, Bytes{static_cast<u8>(m)});
      }
    }});
  }
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    emit(key, Bytes{static_cast<u8>(values.size())});
  };
  return runJob(config, tasks, reduce);
}

TEST(ReportTest, MentionsEveryPhaseAndCounter) {
  const auto result = runTinyJob(false);
  const std::string report = jobReport(result);
  for (const char* needle : {"job report", "phases:", "map:", "shuffle:", "reduce:", "skew:",
                             "map cpu", "map output", "reduce input", "reduce records",
                             "reduce cpu", "30 records"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle << "\n" << report;
  }
  // No combiner ran, so the combine line must be absent.
  EXPECT_EQ(report.find("combine:"), std::string::npos);
}

TEST(ReportTest, CombinerLineAppearsWhenUsed) {
  const auto result = runTinyJob(true);
  EXPECT_NE(jobReport(result).find("combine:"), std::string::npos);
}

TEST(ReportTest, SummaryLineIsCompact) {
  const auto result = runTinyJob(false);
  const std::string line = jobSummaryLine(result);
  EXPECT_NE(line.find("map records"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(ReportTest, SummaryLineTotalIsMapPlusReducePhase) {
  // Reducers fetch during the map phase, so map + reduce phase is the job's
  // wall clock; the shuffle window and its overlap must not be added again.
  JobResult result;
  result.timings.map_phase_us = 100'000;
  result.timings.reduce_phase_us = 50'000;
  result.timings.shuffle_us = 80'000;
  result.timings.shuffle_overlap_us = 30'000;
  EXPECT_NE(jobSummaryLine(result).find(" in 150 ms"), std::string::npos)
      << jobSummaryLine(result);
}

TEST(ReportTest, PerTaskStatsArePopulated) {
  const auto result = runTinyJob(false);
  ASSERT_EQ(result.map_tasks.size(), 3u);
  for (const auto& t : result.map_tasks) {
    ASSERT_EQ(t.segment_bytes.size(), 2u);
    EXPECT_GT(t.segment_bytes[0] + t.segment_bytes[1], 0u);
  }
  ASSERT_EQ(result.reduce_tasks.size(), 2u);
  u64 shuffled = 0;
  u64 records = 0;
  for (const auto& t : result.reduce_tasks) {
    shuffled += t.shuffled_bytes;
    records += t.input_records;
  }
  EXPECT_EQ(shuffled, result.counters.get(counter::kReduceShuffleBytes));
  EXPECT_EQ(records, 30u);
  EXPECT_EQ(records, result.counters.get(counter::kReduceInputRecords));
}

TEST(ReportJsonTest, ParsesAndCountersMatchSnapshot) {
  const auto result = runTinyJob(false);
  const JsonValue doc = parseJson(jobReportJson(result));
  EXPECT_EQ(doc.at("schema").string, "scishuffle.job_report.v1");

  // Every counter in the report equals the live Counters snapshot, and the
  // report has no extras.
  const auto snapshot = result.counters.snapshot();
  const auto& counters = doc.at("counters").object;
  ASSERT_EQ(counters.size(), snapshot.size());
  for (const auto& [name, value] : snapshot) {
    ASSERT_TRUE(doc.at("counters").has(name)) << name;
    EXPECT_EQ(counters.at(name).asU64(), value) << name;
  }

  ASSERT_EQ(doc.at("map_tasks").array.size(), 3u);
  for (const JsonValue& t : doc.at("map_tasks").array) {
    EXPECT_EQ(t.at("segment_bytes").array.size(), 2u);
  }
  ASSERT_EQ(doc.at("reduce_tasks").array.size(), 2u);
  u64 reduceRecords = 0;
  for (const JsonValue& t : doc.at("reduce_tasks").array) {
    reduceRecords += t.at("input_records").asU64();
  }
  EXPECT_EQ(reduceRecords, result.counters.get(counter::kReduceInputRecords));
  EXPECT_TRUE(doc.at("telemetry").has("counters"));
}

TEST(ReportJsonTest, PipelinedTimingReportsOverlap) {
  const auto result = runTinyJob(false);
  const JsonValue doc = parseJson(jobReportJson(result));
  const JsonValue& timings = doc.at("timings");
  // Pipelined, shuffle_us spans firstPublish..lastFetch and the overlap
  // field records how much of that ran concurrently with the map phase.
  EXPECT_GT(timings.at("shuffle_us").asU64(), 0u);
  EXPECT_TRUE(timings.has("shuffle_overlap_us"));
  EXPECT_LE(timings.at("shuffle_overlap_us").asU64(),
            timings.at("map_phase_us").asU64() + timings.at("shuffle_us").asU64());
}

TEST(ReportJsonTest, HistogramsAppearWhenCollected) {
  const auto result = runTinyJob(false, [](JobConfig& c) { c.collect_histograms = true; });
  ASSERT_GT(result.telemetry.span_count, 0u);

  // Three map tasks -> the map_task duration histogram has three samples.
  const auto* mapTasks = result.telemetry.findHistogram("map_task_us");
  ASSERT_NE(mapTasks, nullptr);
  EXPECT_EQ(mapTasks->count, 3u);
  const auto* reduceTasks = result.telemetry.findHistogram("reduce_task_us");
  ASSERT_NE(reduceTasks, nullptr);
  EXPECT_EQ(reduceTasks->count, 2u);

  // The text report grows its histogram section...
  const std::string report = jobReport(result);
  EXPECT_NE(report.find("histograms ("), std::string::npos);
  EXPECT_NE(report.find("map_task_us"), std::string::npos);
  // ...and the JSON report carries the same data under telemetry.
  const JsonValue doc = parseJson(jobReportJson(result));
  EXPECT_GT(doc.at("telemetry").at("histograms").array.size(), 0u);
  EXPECT_EQ(doc.at("telemetry").at("span_count").asU64(), result.telemetry.span_count);
}

TEST(ReportJsonTest, HistogramsAbsentByDefault) {
  const auto result = runTinyJob(false);
  EXPECT_TRUE(result.telemetry.histograms.empty());
  EXPECT_EQ(jobReport(result).find("histograms ("), std::string::npos);
  // The counter map still rides along even without histograms.
  EXPECT_EQ(result.telemetry.counters.at(counter::kMapOutputRecords), 30u);
}

TEST(ReportTraceTest, TraceFileCoversEveryStageCategory) {
  const testing::TempDir dir;
  const std::filesystem::path path = dir.file("report_test_trace.json");
  runTinyJob(false, [&path](JobConfig& c) {
    c.trace_path = path;
    c.intermediate_codec = "gzipish";  // ensures real codec work -> codec spans
  });
  ASSERT_TRUE(std::filesystem::exists(path));

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = parseJson(buffer.str());
  std::set<std::string> categories;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    categories.insert(e.at("cat").string);
  }
  for (const char* cat : {"job", "map", "spill", "codec", "shuffle", "merge", "reduce"}) {
    EXPECT_TRUE(categories.count(cat)) << "missing category: " << cat;
  }
}

TEST(ReportTest, ResidentPeakCounterIsMaxOverReduceTasksNotSum) {
  const auto result = runTinyJob(false);
  u64 maxPeak = 0;
  u64 sumPeak = 0;
  for (const auto& t : result.reduce_tasks) {
    maxPeak = std::max(maxPeak, t.merge_resident_peak_bytes);
    sumPeak += t.merge_resident_peak_bytes;
  }
  ASSERT_GT(maxPeak, 0u);
  // The job-level counter answers "how much decoded data does ONE reducer
  // hold at peak" — summing across reducers overstated it.
  EXPECT_EQ(result.counters.get(counter::kReduceMergeResidentPeakBytes), maxPeak);
  if (result.reduce_tasks.size() > 1 && sumPeak > maxPeak) {
    EXPECT_LT(result.counters.get(counter::kReduceMergeResidentPeakBytes), sumPeak);
  }
}

TEST(ReportTest, AggregationCountersAppearInReport) {
  JobResult result = runTinyJob(false);
  result.counters.add(counter::kAggregateFlushes, 4);
  result.counters.add(counter::kKeySplitsRouting, 2);
  result.counters.add(counter::kKeySplitsOverlap, 1);
  const std::string report = jobReport(result);
  EXPECT_NE(report.find("aggregation: 4 aggregate flushes"), std::string::npos) << report;
  EXPECT_NE(report.find("routing 2"), std::string::npos) << report;
  EXPECT_NE(report.find("overlap 1"), std::string::npos) << report;
}

TEST(ReportTest, AggregationLineAbsentWhenCountersZero) {
  const auto result = runTinyJob(false);
  EXPECT_EQ(jobReport(result).find("aggregation:"), std::string::npos);
}

u64 processCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000 + static_cast<u64>(ts.tv_nsec) / 1000;
}

TEST(ReportTest, TaskCpuIsThreadCpuNotWallClock) {
  // Map and reduce functions that sleep 200 ms burn next to no CPU. Each
  // task must report CPU, not its wall clock, and count each microsecond
  // once, so the tasks together stay within what the whole process used.
  JobConfig config;
  config.num_reducers = 2;
  config.map_slots = 2;
  config.reduce_slots = 2;
  std::vector<MapTask> tasks;
  for (int m = 0; m < 2; ++m) {
    tasks.push_back(MapTask{[m](const EmitFn& emit) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      for (int i = 0; i < 100; ++i) emit(Bytes{static_cast<u8>(i % 2)}, Bytes{static_cast<u8>(m)});
    }});
  }
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    emit(key, Bytes{static_cast<u8>(values.size())});
  };
  const u64 before = processCpuUs();
  const JobResult result = runJob(config, tasks, reduce);
  const u64 processCpu = processCpuUs() - before;

  u64 summed = 0;
  for (const auto& t : result.map_tasks) {
    EXPECT_LT(t.cpu_us, 50'000u);
    summed += t.cpu_us;
  }
  for (const auto& t : result.reduce_tasks) {
    EXPECT_LT(t.cpu_us, 50'000u);
    summed += t.cpu_us;
  }
  EXPECT_LE(summed, processCpu);
}

TEST(ReportTest, CodecCpuOnWaitingThreadsIsCountedOnce) {
  // One codec thread beside three map slots and two reduce slots, so most
  // blocks compress on map threads closing their segments and decode on
  // waiting reducers. That CPU must land under the codec counters and leave
  // the map and reduce counters, each microsecond counted once.
  JobConfig config;
  config.num_reducers = 2;
  config.map_slots = 3;
  config.reduce_slots = 2;
  config.codec_threads = 1;
  config.intermediate_codec = "gzipish";
  config.shuffle_block_bytes = 4 << 10;
  const Bytes payload = testing::runnyBytes(64 << 10, 5);
  std::vector<MapTask> tasks;
  for (int m = 0; m < 3; ++m) {
    tasks.push_back(MapTask{[m, &payload](const EmitFn& emit) {
      for (u32 i = 0; i < 20'000; ++i) {
        const u32 key = i * 3 + static_cast<u32>(m);
        const auto at = payload.begin() + (key * 61) % (payload.size() - 64);
        emit(Bytes{static_cast<u8>(key >> 16), static_cast<u8>(key >> 8), static_cast<u8>(key)},
             Bytes(at, at + 64));
      }
    }});
  }
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    emit(key, values.front());
  };
  const u64 before = processCpuUs();
  const JobResult result = runJob(config, tasks, reduce);
  const u64 processCpu = processCpuUs() - before;

  u64 summed = 0;
  for (const char* name : {counter::kMapCpuUs, counter::kSortCpuUs, counter::kCodecCompressCpuUs,
                           counter::kCodecDecompressCpuUs, counter::kReduceCpuUs}) {
    summed += result.counters.get(name);
  }
  EXPECT_LE(summed, processCpu);
  EXPECT_GT(result.counters.get(counter::kCodecCompressCpuUs),
            result.counters.get(counter::kMapCpuUs));
}

TEST(CountersTest, SetOverwritesAccumulatedValue) {
  Counters counters;
  counters.add("X", 10);
  counters.add("X", 5);
  counters.set("X", 7);
  EXPECT_EQ(counters.get("X"), 7u);
  counters.set("FRESH", 3);
  EXPECT_EQ(counters.get("FRESH"), 3u);
}

}  // namespace
}  // namespace scishuffle::hadoop
