// Tests for the continuous-telemetry layer (ctest label: tsan): gauge
// registry summing and RAII unregistration, sampler lifecycle (zero-interval
// no-op, final-sample-on-stop, stop/teardown races), counter-event timestamp
// monotonicity, the metrics JSONL round trip through `stat` (and the lines it
// skips), the disabled-path overhead smoke enforced by CI, concurrent
// standalone jobs keeping their own telemetry and trace files, and runJob's
// use of the global telemetry slots.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "obs/json.h"
#include "obs/metrics_stream.h"
#include "obs/sampler.h"
#include "obs/stat.h"
#include "obs/trace.h"
#include "testing/fault_injector.h"
#include "testing_support.h"

namespace scishuffle::obs {
namespace {

std::filesystem::path tempFile(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "scishuffle_sampler_test";
  std::filesystem::create_directories(dir);
  return dir / name;
}

// ---------------------------------------------------------------- registry

TEST(GaugeRegistryTest, SameNameSourcesAreSummed) {
  GaugeRegistry registry;
  auto a = registry.add("pool.depth", [] { return u64{3}; });
  auto b = registry.add("pool.depth", [] { return u64{4}; });
  auto c = registry.add("other", [] { return u64{9}; });
  const auto sample = registry.sample();
  EXPECT_EQ(sample.at("pool.depth"), 7u);
  EXPECT_EQ(sample.at("other"), 9u);
  EXPECT_EQ(registry.sourceCount(), 3u);
}

TEST(GaugeRegistryTest, RegistrationUnregistersOnDestructionAndMove) {
  GaugeRegistry registry;
  {
    auto a = registry.add("g", [] { return u64{1}; });
    EXPECT_EQ(registry.sourceCount(), 1u);
    GaugeRegistration moved = std::move(a);  // ownership transfers, no double remove
    EXPECT_EQ(registry.sourceCount(), 1u);
    GaugeRegistration assigned;
    assigned = std::move(moved);
    EXPECT_EQ(registry.sourceCount(), 1u);
  }
  EXPECT_EQ(registry.sourceCount(), 0u);
  EXPECT_TRUE(registry.sample().empty());
}

TEST(GaugeRegistryTest, UnregistrationBlocksOutSampling) {
  // A component may tear down its gauge source while the sampler thread is
  // mid-loop; the registry lock makes the two strictly ordered, so the
  // callback can never observe destroyed state. Hammer the interleaving.
  GaugeRegistry registry;
  std::atomic<bool> stop{false};
  std::thread samplerThread([&] {
    while (!stop.load(std::memory_order_relaxed)) (void)registry.sample();
  });
  for (int i = 0; i < 200; ++i) {
    auto owner = std::make_unique<std::atomic<u64>>(u64{42});
    auto reg = registry.add("transient", [p = owner.get()] {
      return p->load(std::memory_order_relaxed);
    });
    reg = GaugeRegistration();  // unregister BEFORE the owner dies
    owner.reset();
  }
  stop.store(true, std::memory_order_relaxed);
  samplerThread.join();
  EXPECT_EQ(registry.sourceCount(), 0u);
}

// ---------------------------------------------------------------- sampler

TEST(SamplerTest, ZeroIntervalIsAHardNoOp) {
  GaugeRegistry registry;
  Sampler sampler(0, registry, nullptr, nullptr);
  sampler.start();
  EXPECT_FALSE(sampler.running());
  sampler.stop();
  EXPECT_EQ(sampler.sampleCount(), 0u);
  EXPECT_TRUE(sampler.rollups().empty());
}

TEST(SamplerTest, RecordsAtLeastTwoSamplesAndRollups) {
  GaugeRegistry registry;
  auto g = registry.add("test.constant", [] { return u64{7}; });
  Sampler sampler(1, registry, nullptr, nullptr);
  sampler.start();
  EXPECT_TRUE(sampler.running());
  // The t≈0 baseline is taken before start() returns.
  EXPECT_GE(sampler.sampleCount(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  // t≈0 baseline sample plus the final sample in stop().
  EXPECT_GE(sampler.sampleCount(), 2u);

  const auto rollups = sampler.rollups();
  ASSERT_EQ(rollups.count("test.constant"), 1u);
  const GaugeRollup& r = rollups.at("test.constant");
  EXPECT_EQ(r.max, 7u);
  EXPECT_DOUBLE_EQ(r.mean(), 7.0);
  EXPECT_EQ(r.samples, sampler.sampleCount());
  // The sampler injects the RSS gauge itself, into every sample.
  ASSERT_EQ(rollups.count(gauge::kProcessRssBytes), 1u);
  EXPECT_GT(rollups.at(gauge::kProcessRssBytes).max, 0u);
  EXPECT_EQ(rollups.at(gauge::kProcessRssBytes).samples, sampler.sampleCount());
}

TEST(SamplerTest, StopIsIdempotentAndRacesSafelyWithTeardown) {
  for (int round = 0; round < 20; ++round) {
    GaugeRegistry registry;
    auto g = registry.add("g", [] { return u64{1}; });
    auto sampler = std::make_unique<Sampler>(1, registry, nullptr, nullptr);
    sampler->start();
    std::thread stopper([&] { sampler->stop(); });
    sampler->stop();  // races the stopper thread; one wins, one no-ops
    stopper.join();
    const u64 count = sampler->sampleCount();
    EXPECT_GE(count, 2u);
    sampler.reset();  // ~Sampler calls stop() a third time: still a no-op
  }
}

TEST(SamplerTest, CounterEventTimestampsAreMonotonic) {
  GaugeRegistry registry;
  std::atomic<u64> value{0};
  auto g = registry.add("ramp", [&] { return value.fetch_add(1, std::memory_order_relaxed); });
  TraceRecorder recorder;
  Sampler sampler(1, registry, &recorder, nullptr);
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  sampler.stop();

  const auto counters = recorder.counterSamples();
  ASSERT_GE(counters.size(), 4u);  // >= 2 samples x 2 gauges (ramp + rss)
  u64 lastTs = 0;
  for (const auto& c : counters) {
    EXPECT_GE(c.ts_us, lastTs) << "counter events must be time-ordered";
    lastTs = c.ts_us;
  }
  // All gauges of one snapshot share a single timestamp.
  std::map<u64, std::set<std::string>> byTs;
  for (const auto& c : counters) byTs[c.ts_us].insert(c.name);
  for (const auto& [ts, names] : byTs) {
    EXPECT_GE(names.size(), 2u) << "sample at ts=" << ts << " lost a gauge";
  }
}

// ---------------------------------------------------------------- stream

TEST(MetricsStreamTest, JsonlRoundTripsThroughStat) {
  const auto path = tempFile("roundtrip.jsonl");
  GaugeRegistry registry;
  std::atomic<u64> depth{0};
  auto g = registry.add("queue.depth", [&] { return depth.load(std::memory_order_relaxed); });
  {
    MetricsStream stream(path, 1);
    Sampler sampler(1, registry, nullptr, &stream);
    sampler.start();
    depth.store(5, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    depth.store(2, std::memory_order_relaxed);
    stream.writeEvent(event::kShuffleBackpressureWait, "shuffle.fetch", 123);
    sampler.stop();
    stream.writeSummary(sampler.rollups());
  }

  const MetricsSummary summary = summarizeMetricsFile(path);
  EXPECT_EQ(summary.schema, kMetricsSchema);
  EXPECT_EQ(summary.interval_ms, 1u);
  EXPECT_GE(summary.samples, 2u);
  EXPECT_EQ(summary.events, 1u);
  EXPECT_EQ(summary.skipped_lines, 0u);
  ASSERT_EQ(summary.gauges.count("queue.depth"), 1u);
  EXPECT_EQ(summary.gauges.at("queue.depth").peak, 5u);
  ASSERT_EQ(summary.event_counts.count(event::kShuffleBackpressureWait), 1u);
  EXPECT_EQ(summary.event_counts.at(event::kShuffleBackpressureWait), 1u);

  std::ostringstream os;
  renderMetricsSummary(summary, os);
  EXPECT_NE(os.str().find("peak RSS"), std::string::npos);
  EXPECT_NE(os.str().find("queue.depth"), std::string::npos);
}

TEST(MetricsStreamTest, TruncatedFileSummarizesWithSkippedLines) {
  const auto path = tempFile("truncated.jsonl");
  {
    MetricsStream stream(path, 2);
    stream.writeSample({{"g", 1}});
    stream.writeSample({{"g", 9}});
  }
  {
    std::ofstream out(path, std::ios::app);
    // Gauge values off the JSON number grammar: each line is skipped whole.
    for (const char* bad : {"1.2.3", "1-2", "+7"}) {
      out << "{\"type\":\"sample\",\"ts_us\":50,\"gauges\":{\"g\":" << bad << "}}\n";
    }
    out << "{\"type\":\"sample\",\"ts_us\":99,\"gau";  // crash mid-line
  }
  const MetricsSummary summary = summarizeMetricsFile(path);
  EXPECT_EQ(summary.samples, 2u);
  EXPECT_EQ(summary.skipped_lines, 4u);
  EXPECT_EQ(summary.gauges.at("g").peak, 9u);
}

TEST(MetricsStreamTest, EmitEventReachesOnlyTheActiveStream) {
  const auto path = tempFile("events.jsonl");
  emitEvent("ignored.event", "nowhere", 1);  // no active stream: no-op
  {
    MetricsStream stream(path, 0);
    setActiveMetrics(&stream);
    emitEvent(event::kTaskRetry, "map_task", 2);
    emitEvent(event::kTaskRetry, "map_task", 3);
    setActiveMetrics(nullptr);
    emitEvent("ignored.event", "nowhere", 4);  // cleared: no-op again
    EXPECT_EQ(stream.eventCounts().at(event::kTaskRetry), 2u);
  }
  const MetricsSummary summary = summarizeMetricsFile(path);
  EXPECT_EQ(summary.events, 2u);
  EXPECT_EQ(summary.event_counts.count("ignored.event"), 0u);
}

// ---------------------------------------------------------------- overhead

TEST(SamplerOverheadSmoke, DisabledTelemetryStaysInsideTheTracingBudget) {
  // The disabled path of emitEvent() is one relaxed atomic load — the same
  // budget the tracing layer promises (< 2% on the shuffle bench, see
  // docs/OBSERVABILITY.md). 1M calls in well under a second catches any
  // accidental lock, allocation, or I/O sneaking onto the disabled path;
  // the bound is deliberately loose so slow CI boxes never flake.
  ASSERT_EQ(activeMetrics(), nullptr);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1'000'000; ++i) {
    emitEvent(event::kShuffleFetchRetry, "shuffle.fetch", static_cast<u64>(i));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1000)
      << "disabled emitEvent() must stay a single relaxed load";
}

// ---------------------------------------------------------------- end to end

TEST(SamplerEndToEnd, RunJobStreamsMetricsAndMergesRollups) {
  const auto path = tempFile("job.jsonl");
  std::vector<hadoop::MapTask> tasks;
  for (int m = 0; m < 2; ++m) {
    tasks.push_back(hadoop::MapTask{[m](const hadoop::EmitFn& emit) {
      for (int i = 0; i < 200; ++i) {
        Bytes key{static_cast<u8>('a' + (i + m) % 4)};
        Bytes value;
        MemorySink sink(value);
        writeI64(sink, 1);
        emit(std::move(key), std::move(value));
      }
    }});
  }
  const hadoop::ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values,
                                     const hadoop::EmitFn& emit) {
    emit(key, values.front());
  };

  hadoop::JobConfig config;
  config.num_reducers = 2;
  config.sample_interval_ms = 1;
  config.metrics_path = path;
  const auto result = hadoop::runJob(config, tasks, reduce);

  // Rollups merged into telemetry (even without histograms).
  ASSERT_EQ(result.telemetry.gauges.count("process.rss_bytes.max"), 1u);
  EXPECT_GT(result.telemetry.gauges.at("process.rss_bytes.max"), 0u);
  EXPECT_EQ(result.telemetry.gauges.count("process.rss_bytes.mean"), 1u);

  // The stream summarizes, with the sampler's >= 2 guaranteed samples.
  const MetricsSummary summary = summarizeMetricsFile(path);
  EXPECT_GE(summary.samples, 2u);
  EXPECT_EQ(summary.gauges.count(gauge::kProcessRssBytes), 1u);

  // A config that never asked for telemetry produces none of it.
  hadoop::JobConfig off;
  off.num_reducers = 2;
  const auto quiet = hadoop::runJob(off, tasks, reduce);
  EXPECT_EQ(quiet.telemetry.gauges.count("process.rss_bytes.max"), 0u);
}

// Two standalone jobs overlap in one process: B runs start to finish while
// A's only map task is parked. Each job's spans reach its own recorder, also
// those A records after B has finished. Each job's events reach its own
// stream alone: A's injected fetch fault leaves its retry in A's stream, not
// in clean B's, and the host's global stream hears from neither job.
TEST(SamplerEndToEnd, ConcurrentStandaloneJobsKeepTheirOwnTelemetry) {
  const hadoop::ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values,
                                     const hadoop::EmitFn& emit) { emit(key, values.front()); };
  const auto emitWords = [](const hadoop::EmitFn& emit) {
    for (int i = 0; i < 100; ++i) emit(Bytes{static_cast<u8>('a' + i % 5)}, Bytes{1});
  };
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;
  const hadoop::MapTask parkedTask{[&](const hadoop::EmitFn& emit) {
    {
      std::unique_lock<std::mutex> lock(mu);
      parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    }
    emitWords(emit);
  }};

  MetricsStream global(tempFile("concurrent_global.jsonl"), 0);
  setActiveMetrics(&global);

  testing::FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back({testing::site::kShuffleFetch, testing::FaultKind::kThrowIo});
  testing::FaultInjector faults(plan);
  hadoop::JobConfig configA;
  configA.num_reducers = 2;
  configA.collect_histograms = true;
  configA.metrics_path = tempFile("concurrent_a.jsonl");
  configA.fault_injector = &faults;
  configA.shuffle_retry.enabled = true;
  hadoop::JobResult a;
  std::thread jobA([&] { a = hadoop::runJob(configA, {parkedTask}, reduce); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  hadoop::JobConfig configB;
  configB.num_reducers = 3;
  configB.collect_histograms = true;
  configB.metrics_path = tempFile("concurrent_b.jsonl");
  const hadoop::JobResult b =
      hadoop::runJob(configB, std::vector<hadoop::MapTask>(3, hadoop::MapTask{emitWords}), reduce);
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  jobA.join();
  setActiveMetrics(nullptr);

  const auto count = [](const hadoop::JobResult& r, const char* name) -> u64 {
    const HistogramSnapshot* h = r.telemetry.findHistogram(name);
    return h != nullptr ? h->count : 0;
  };
  for (const char* name : {"spill_us", "sort_us", "segment_publish_us"}) {
    EXPECT_GT(count(a, name), 0u) << name;
  }
  EXPECT_EQ(count(a, "job_us"), 1u);
  EXPECT_EQ(count(a, "map_task_us"), 1u);
  EXPECT_EQ(count(a, "reduce_task_us"), 2u);
  EXPECT_EQ(count(b, "job_us"), 1u);
  EXPECT_EQ(count(b, "map_task_us"), 3u);
  EXPECT_EQ(count(b, "reduce_task_us"), 3u);

  EXPECT_GE(a.counters.get(hadoop::counter::kShuffleFetchRetries), 1u);
  const MetricsSummary streamA = summarizeMetricsFile(configA.metrics_path);
  ASSERT_EQ(streamA.event_counts.count(event::kShuffleFetchRetry), 1u);
  EXPECT_EQ(streamA.event_counts.at(event::kShuffleFetchRetry),
            a.counters.get(hadoop::counter::kShuffleFetchRetries));
  const MetricsSummary streamB = summarizeMetricsFile(configB.metrics_path);
  EXPECT_EQ(streamB.event_counts.count(event::kShuffleFetchRetry), 0u);
  EXPECT_TRUE(global.eventCounts().empty()) << "a job event reached the global stream";
}

// Two standalone jobs overlap in one process, each writing its own trace
// file: the first two map tasks of each job wait until all four run, so both
// jobs record spans at once. Every file holds exactly its own job's spans.
TEST(SamplerEndToEnd, ConcurrentStandaloneJobsWriteSeparateTraceFiles) {
  const testing::TempDir dir("sampler_traces");
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  bool overlapped = true;
  const auto tracedJob = [&](const std::string& name, int maps, int reducers) {
    hadoop::JobConfig config;
    config.num_reducers = reducers;
    config.map_slots = 2;
    config.trace_path = dir.file(name + ".json");
    std::vector<hadoop::MapTask> tasks;
    for (int m = 0; m < maps; ++m) {
      tasks.push_back(hadoop::MapTask{[&, m](const hadoop::EmitFn& emit) {
        {
          std::unique_lock<std::mutex> lock(mu);
          ++running;
          cv.notify_all();
          if (!cv.wait_for(lock, std::chrono::seconds(30), [&] { return running >= 4; })) {
            overlapped = false;
          }
        }
        for (int i = 0; i < 50; ++i) emit(Bytes{static_cast<u8>('a' + (i + m) % 7)}, Bytes{1});
      }});
    }
    const hadoop::ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values,
                                       const hadoop::EmitFn& emit) { emit(key, values.front()); };
    hadoop::runJob(config, tasks, reduce);
  };
  std::thread two([&] { tracedJob("two", 2, 2); });
  tracedJob("five", 5, 3);
  two.join();
  EXPECT_TRUE(overlapped) << "the two jobs never ran map tasks at once";

  const auto spanCounts = [&dir](const std::string& name) {
    std::ifstream in(dir.file(name + ".json"));
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue doc = parseJson(text.str());
    std::map<std::string, int> counts;
    for (const JsonValue& e : doc.at("traceEvents").array) ++counts[e.at("name").string];
    return counts;
  };
  std::map<std::string, int> counts = spanCounts("two");
  EXPECT_EQ(counts["job"], 1);
  EXPECT_EQ(counts["map_task"], 2);
  EXPECT_EQ(counts["reduce_task"], 2);
  counts = spanCounts("five");
  EXPECT_EQ(counts["job"], 1);
  EXPECT_EQ(counts["map_task"], 5);
  EXPECT_EQ(counts["reduce_task"], 3);
}

// A job that asks for no telemetry installs none, so it must leave whatever
// the host installed in the global slots in place.
TEST(SamplerEndToEnd, UntracedRunJobLeavesTheGlobalSlotsAlone) {
  TraceRecorder recorder;
  MetricsStream stream(tempFile("host.jsonl"), 0);
  setActiveTrace(&recorder);
  setActiveMetrics(&stream);
  const hadoop::MapTask task{[](const hadoop::EmitFn& emit) { emit(Bytes{1}, Bytes{2}); }};
  const hadoop::ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values,
                                     const hadoop::EmitFn& emit) { emit(key, values.front()); };
  hadoop::JobConfig config;
  config.num_reducers = 1;
  hadoop::runJob(config, {task}, reduce);
  EXPECT_EQ(activeTrace(), &recorder);
  EXPECT_EQ(activeMetrics(), &stream);
  setActiveTrace(nullptr);
  setActiveMetrics(nullptr);
}

}  // namespace
}  // namespace scishuffle::obs
