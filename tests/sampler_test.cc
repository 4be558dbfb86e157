// Tests for the continuous-telemetry layer (ctest label: tsan): gauge
// registry summing and RAII unregistration, sampler lifecycle (zero-interval
// no-op, final-sample-on-stop, stop/teardown races), counter-event timestamp
// monotonicity, the metrics JSONL round trip through `stat`, and the
// disabled-path overhead smoke enforced by CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "obs/metrics_stream.h"
#include "obs/sampler.h"
#include "obs/stat.h"
#include "obs/trace.h"

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
  std::atomic<u64> callbacks{0};
  std::atomic<u64> callbackRss{0};
  Sampler sampler(1, registry, nullptr, nullptr, [&](const std::map<std::string, u64>& gauges) {
    callbacks.fetch_add(1);
    const auto rss = gauges.find(gauge::kProcessRssBytes);
    callbackRss.store(rss != gauges.end() ? rss->second : 0);
  });
  sampler.start();
  EXPECT_TRUE(sampler.running());
  // The t≈0 baseline is taken before start() returns.
  EXPECT_GE(sampler.sampleCount(), 1u);
  EXPECT_GE(callbacks.load(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  // t≈0 baseline sample plus the final sample in stop().
  EXPECT_GE(sampler.sampleCount(), 2u);
  // One callback per sample, each with the RSS reading the sampler injects.
  EXPECT_EQ(callbacks.load(), sampler.sampleCount());
  EXPECT_GT(callbackRss.load(), 0u);

  const auto rollups = sampler.rollups();
  ASSERT_EQ(rollups.count("test.constant"), 1u);
  const GaugeRollup& r = rollups.at("test.constant");
  EXPECT_EQ(r.max, 7u);
  EXPECT_DOUBLE_EQ(r.mean(), 7.0);
  EXPECT_EQ(r.samples, sampler.sampleCount());
  // The sampler injects the RSS gauge itself.
  ASSERT_EQ(rollups.count(gauge::kProcessRssBytes), 1u);
  EXPECT_GT(rollups.at(gauge::kProcessRssBytes).max, 0u);
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
    out << "{\"type\":\"sample\",\"ts_us\":99,\"gau";  // crash mid-line
  }
  const MetricsSummary summary = summarizeMetricsFile(path);
  EXPECT_EQ(summary.samples, 2u);
  EXPECT_EQ(summary.skipped_lines, 1u);
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

}  // namespace
}  // namespace scishuffle::obs
