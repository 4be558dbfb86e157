// Tests for the observability layer: span recording (single- and
// multi-threaded — this test carries the `tsan` label), Chrome trace export,
// histogram percentile math, and the span->histogram folding that powers
// JobConfig::collect_histograms.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing_support.h"

namespace scishuffle::obs {
namespace {

using testing::JsonParser;
using testing::JsonValue;

// ---------------------------------------------------------------- JsonWriter

TEST(JsonWriterTest, RoundTripsThroughParser) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.kv("text", std::string("he said \"hi\"\n\ttab"));
  w.kv("big", u64{18446744073709551615ull});
  w.kv("neg", i64{-42});
  w.kv("pi", 3.25);
  w.kv("yes", true);
  w.key("null").valueNull();
  w.key("list").beginArray();
  w.value(u64{1});
  w.value(u64{2});
  w.endArray();
  w.endObject();
  ASSERT_TRUE(w.done());

  const JsonValue v = JsonParser::parse(os.str());
  EXPECT_EQ(v.at("text").string, "he said \"hi\"\n\ttab");
  // 2^64-1 is not exactly representable in a double; just check magnitude.
  EXPECT_GT(v.at("big").number, 1.8e19);
  EXPECT_EQ(v.at("neg").number, -42.0);
  EXPECT_EQ(v.at("pi").number, 3.25);
  EXPECT_TRUE(v.at("yes").boolean);
  EXPECT_EQ(v.at("null").kind, JsonValue::Kind::kNull);
  ASSERT_EQ(v.at("list").array.size(), 2u);
  EXPECT_EQ(v.at("list").array[1].number, 2.0);
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.kv("ctl", std::string("a\x01" "b"));
  w.endObject();
  EXPECT_NE(os.str().find("\\u0001"), std::string::npos);
  EXPECT_NO_THROW(JsonParser::parse(os.str()));
}

TEST(JsonWriterTest, DoublesRoundTripExactly) {
  // Shortest-round-trip formatting: parsing the emitted text must recover
  // the exact bit pattern for doubles across the magnitude range the
  // metrics stream emits (means, fractional seconds, byte counts as f64).
  const double cases[] = {0.0,  0.1,   -2.5,     1.0 / 3.0,          6.25e-3,
                          1e-9, 1e300, 12345.75, 1.25e-7,            123456789.0,
                          -0.5, 2.0,   1e21,     0.028999999999999998};
  for (const double d : cases) {
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    w.value(d);
    w.endArray();
    const JsonValue v = JsonParser::parse(os.str());
    ASSERT_EQ(v.array.size(), 1u) << os.str();
    EXPECT_EQ(v.array[0].number, d) << "emitted: " << os.str();
  }
}

TEST(JsonWriterTest, DoublesAreLocaleIndependentAndFiniteOnly) {
  // The decimal separator must be '.' regardless of the C locale (a comma
  // would corrupt every metrics/report consumer), and non-finite values —
  // unrepresentable in JSON — degrade to null.
  std::ostringstream os;
  JsonWriter w(os);
  w.beginArray();
  w.value(3.5);
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.endArray();
  const std::string text = os.str();
  EXPECT_NE(text.find("3.5"), std::string::npos);
  EXPECT_EQ(text.find("3,5"), std::string::npos);  // never a comma separator
  const JsonValue v = JsonParser::parse(text);
  ASSERT_EQ(v.array.size(), 4u);
  EXPECT_EQ(v.array[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.array[2].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.array[3].kind, JsonValue::Kind::kNull);
}

TEST(JsonWriterTest, BoolsRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.kv("yes", true);
  w.kv("no", false);
  w.endObject();
  EXPECT_NE(os.str().find("true"), std::string::npos);
  EXPECT_NE(os.str().find("false"), std::string::npos);
  const JsonValue v = JsonParser::parse(os.str());
  EXPECT_TRUE(v.at("yes").boolean);
  EXPECT_FALSE(v.at("no").boolean);
}

// ---------------------------------------------------------------- tracing

TEST(TraceTest, ScopedSpanRecordsNameCategoryAndArgs) {
  TraceRecorder recorder;
  {
    ScopedSpan span(&recorder, "block_compress", "codec");
    span.arg("raw_bytes", 4096);
  }
  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "block_compress");
  EXPECT_EQ(spans[0].category, "codec");
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "raw_bytes");
  EXPECT_EQ(spans[0].args[0].second, 4096u);
  EXPECT_GT(spans[0].tid, 0u);
}

TEST(TraceTest, NoActiveRecorderMeansNoRecording) {
  ASSERT_EQ(activeTrace(), nullptr);
  {
    ScopedSpan span("orphan", "test");
    EXPECT_FALSE(span.enabled());
    span.arg("ignored", 1);  // must be safe to call
  }
  // Nothing to assert beyond "did not crash": there is no recorder to check.
}

TEST(TraceTest, ActiveRecorderIsPickedUpByDefaultConstructor) {
  TraceRecorder recorder;
  setActiveTrace(&recorder);
  {
    ScopedSpan span("picked_up", "test");
    EXPECT_TRUE(span.enabled());
  }
  setActiveTrace(nullptr);
  {
    ScopedSpan span("after_clear", "test");
    EXPECT_FALSE(span.enabled());
  }
  ASSERT_EQ(recorder.spanCount(), 1u);
  EXPECT_EQ(recorder.snapshot()[0].name, "picked_up");
}

// The tsan-labeled core: many threads recording concurrently through the
// process-wide active recorder must neither race nor drop spans.
TEST(TraceTest, ConcurrentSpansFromManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  TraceRecorder recorder;
  setActiveTrace(&recorder);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ready, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span("worker_span", "test");
        span.arg("thread", static_cast<u64>(t));
        span.arg("iteration", static_cast<u64>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  setActiveTrace(nullptr);

  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads) * kSpansPerThread);
  std::set<u32> tids;
  for (const Span& s : spans) {
    EXPECT_EQ(s.name, "worker_span");
    tids.insert(s.tid);
  }
  // Every recording thread gets its own stable small id.
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  for (const u32 tid : tids) EXPECT_LE(tid, static_cast<u32>(kThreads));
}

TEST(TraceTest, ChromeTraceExportIsValidAndComplete) {
  TraceRecorder recorder;
  {
    ScopedSpan a(&recorder, "first", "alpha");
    a.arg("bytes", 10);
  }
  { ScopedSpan b(&recorder, "second", "beta"); }

  std::ostringstream os;
  recorder.writeChromeTrace(os);
  const JsonValue doc = JsonParser::parse(os.str());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  for (const JsonValue& e : events) {
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_EQ(e.at("pid").number, 1.0);
    EXPECT_GT(e.at("tid").number, 0.0);
    EXPECT_GE(e.at("dur").number, 0.0);
    EXPECT_TRUE(e.has("ts"));
  }
  // Sorted by start time, and args survive export.
  EXPECT_EQ(events[0].at("name").string, "first");
  EXPECT_EQ(events[0].at("cat").string, "alpha");
  EXPECT_EQ(events[0].at("args").at("bytes").number, 10.0);
  EXPECT_EQ(events[1].at("name").string, "second");
}

// ---------------------------------------------------------------- histograms

TEST(HistogramTest, PercentilesOnUniformData) {
  // Values 1..100 into decade buckets: p50 lands in the (40,50] bucket and
  // interpolates to ~50; p99 into (90,100] at ~99.
  Histogram h("latency", "us", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (u64 v = 1; v <= 100; ++v) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 5050u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_NEAR(static_cast<double>(s.p50()), 50.0, 5.0);
  EXPECT_NEAR(static_cast<double>(s.p95()), 95.0, 5.0);
  EXPECT_NEAR(static_cast<double>(s.p99()), 99.0, 5.0);
  EXPECT_EQ(s.mean(), 50u);
}

TEST(HistogramTest, OverflowBucketReportsMax) {
  Histogram h("sizes", "bytes", {10, 20});
  h.record(5);
  h.record(1000);  // overflow: beyond the last bound
  h.record(9000);
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 3u);  // two bounded buckets + overflow
  EXPECT_EQ(s.counts[2], 2u);
  // Ranks landing in the +inf bucket have no upper bound to interpolate
  // against; the observed max is the honest answer.
  EXPECT_EQ(s.p99(), 9000u);
  EXPECT_EQ(s.max, 9000u);
}

TEST(HistogramTest, EmptyHistogramIsAllZeroes) {
  Histogram h("empty", "us", Histogram::defaultLatencyBounds());
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.percentile(0.5), 0u);
  EXPECT_EQ(s.mean(), 0u);
}

TEST(HistogramTest, PercentileClampsToObservedRange) {
  Histogram h("narrow", "us", {1024, 2048, 4096});
  h.record(1500);
  h.record(1600);
  const HistogramSnapshot s = h.snapshot();
  // Interpolation inside (1024, 2048] would reach below the observed min or
  // above the observed max; clamping keeps estimates inside [1500, 1600].
  EXPECT_GE(s.percentile(0.01), 1500u);
  EXPECT_LE(s.p99(), 1600u);
}

TEST(HistogramTest, ExponentialBoundsDouble) {
  const auto bounds = Histogram::exponentialBounds(64, 5);
  EXPECT_EQ(bounds, (std::vector<u64>{64, 128, 256, 512, 1024}));
}

TEST(HistogramTest, ConcurrentRecordingKeepsEveryValue) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  Histogram h("contended", "us", Histogram::defaultLatencyBounds());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) h.record(static_cast<u64>(i));
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<u64>(kThreads) * kPerThread);
  EXPECT_EQ(s.sum, static_cast<u64>(kThreads) * (kPerThread * (kPerThread + 1) / 2));
}

TEST(HistogramTest, SnapshotJsonParses) {
  Histogram h("spill_us", "us", {10, 100});
  h.record(7);
  h.record(70);
  std::ostringstream os;
  JsonWriter w(os);
  h.snapshot().writeJson(w);
  const JsonValue v = JsonParser::parse(os.str());
  EXPECT_EQ(v.at("name").string, "spill_us");
  EXPECT_EQ(v.at("unit").string, "us");
  EXPECT_EQ(v.at("count").number, 2.0);
  ASSERT_EQ(v.at("bounds").array.size(), 2u);
  ASSERT_EQ(v.at("counts").array.size(), 3u);
}

// ---------------------------------------------------------------- folding

TEST(TelemetryFromSpansTest, FoldsDurationsAndByteArgs) {
  TraceRecorder recorder;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(&recorder, "spill", "spill");
    span.arg("buffered_bytes", static_cast<u64>(1024 * (i + 1)));
    span.arg("records", 100);  // not byte-valued: must NOT become a histogram
  }
  const JobTelemetry t = telemetryFromSpans(recorder.snapshot());

  const HistogramSnapshot* durations = t.findHistogram("spill_us");
  ASSERT_NE(durations, nullptr);
  EXPECT_EQ(durations->unit, "us");
  EXPECT_EQ(durations->count, 3u);

  const HistogramSnapshot* sizes = t.findHistogram("spill.buffered_bytes");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->unit, "bytes");
  EXPECT_EQ(sizes->count, 3u);
  EXPECT_EQ(sizes->max, 3072u);

  EXPECT_EQ(t.findHistogram("spill.records"), nullptr);
  EXPECT_EQ(t.span_count, 3u);
}

TEST(TelemetryFromSpansTest, HistogramsAreSortedByName) {
  TraceRecorder recorder;
  { ScopedSpan s(&recorder, "zeta", "test"); }
  { ScopedSpan s(&recorder, "alpha", "test"); }
  const JobTelemetry t = telemetryFromSpans(recorder.snapshot());
  ASSERT_EQ(t.histograms.size(), 2u);
  EXPECT_EQ(t.histograms[0].name, "alpha_us");
  EXPECT_EQ(t.histograms[1].name, "zeta_us");
}

TEST(TelemetryTest, WriteJsonParses) {
  TraceRecorder recorder;
  {
    ScopedSpan s(&recorder, "merge_pass", "merge");
    s.arg("materialized_bytes", 2048);
  }
  JobTelemetry t = telemetryFromSpans(recorder.snapshot());
  t.counters["MAP_OUTPUT_RECORDS"] = 30;
  t.gauges["threads"] = 4;

  std::ostringstream os;
  JsonWriter w(os);
  t.writeJson(w);
  const JsonValue v = JsonParser::parse(os.str());
  EXPECT_EQ(v.at("span_count").number, 1.0);
  EXPECT_EQ(v.at("counters").at("MAP_OUTPUT_RECORDS").number, 30.0);
  EXPECT_EQ(v.at("gauges").at("threads").number, 4.0);
  ASSERT_EQ(v.at("histograms").array.size(), 2u);  // merge_pass_us + .materialized_bytes
}

}  // namespace
}  // namespace scishuffle::obs
