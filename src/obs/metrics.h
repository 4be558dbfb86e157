// Metrics: thread-safe fixed-bucket histograms plus the JobTelemetry
// snapshot (counters, gauges, histograms) a finished job carries. Histograms
// use ascending upper-bound buckets (the last bucket is the implicit +inf
// overflow) and report p50/p95/p99 by linear interpolation inside the
// landing bucket, clamped to the observed min/max — the same summary shape
// the paper's cluster-median methodology (§III-E / §IV-D) needs per stage.
//
// telemetryFromSpans() is the bridge from tracing to metrics: every recorded
// span name becomes a duration histogram ("<name>_us") and every byte-valued
// span arg becomes a size histogram ("<name>.<arg>"), so enabling
// JobConfig::collect_histograms needs no extra plumbing through the layers.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "io/annotations.h"
#include "io/common.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace scishuffle::obs {

struct HistogramSnapshot {
  std::string name;
  std::string unit;  // "us", "bytes", ...
  u64 count = 0;
  u64 sum = 0;
  u64 min = 0;
  u64 max = 0;
  std::vector<u64> bounds;  // ascending bucket upper bounds
  std::vector<u64> counts;  // bounds.size() + 1 entries; last = overflow

  /// Estimated value at quantile p in (0, 1]: linear interpolation between
  /// the landing bucket's lower and upper bound, clamped to [min, max];
  /// overflow-bucket ranks return max. Zero when the histogram is empty.
  u64 percentile(double p) const;
  u64 p50() const { return percentile(0.50); }
  u64 p95() const { return percentile(0.95); }
  u64 p99() const { return percentile(0.99); }

  u64 mean() const { return count == 0 ? 0 : sum / count; }

  /// Emits this snapshot as one JSON object (bucket bounds/counts included).
  void writeJson(JsonWriter& w) const;
};

class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  Histogram(std::string name, std::string unit, std::vector<u64> bounds);

  void record(u64 value);
  HistogramSnapshot snapshot() const;

  /// Power-of-two bounds: first, 2*first, 4*first, ... (`count` entries).
  static std::vector<u64> exponentialBounds(u64 first, std::size_t count);
  /// Default buckets for microsecond durations (1us .. ~17min).
  static std::vector<u64> defaultLatencyBounds() { return exponentialBounds(1, 30); }
  /// Default buckets for byte sizes (64B .. 64GB).
  static std::vector<u64> defaultSizeBounds() { return exponentialBounds(64, 30); }

 private:
  const std::string name_;
  const std::string unit_;
  const std::vector<u64> bounds_;
  mutable Mutex mutex_{lock_rank::kHistogram};
  std::vector<u64> counts_ GUARDED_BY(mutex_);
  u64 count_ GUARDED_BY(mutex_) = 0;
  u64 sum_ GUARDED_BY(mutex_) = 0;
  u64 min_ GUARDED_BY(mutex_) = 0;
  u64 max_ GUARDED_BY(mutex_) = 0;
};

/// Everything a finished job reports beyond its raw outputs: the counter
/// snapshot (unified with the hadoop Counters), gauges, and per-stage
/// histograms. Attached to JobResult; serialized inside jobReportJson().
struct JobTelemetry {
  std::map<std::string, u64> counters;
  std::map<std::string, u64> gauges;
  std::vector<HistogramSnapshot> histograms;  // sorted by name
  u64 span_count = 0;

  const HistogramSnapshot* findHistogram(std::string_view name) const;

  /// Emits {"span_count":..,"counters":{..},"gauges":{..},"histograms":[..]}.
  void writeJson(JsonWriter& w) const;
};

/// Folds recorded spans into per-stage histograms (see file comment).
JobTelemetry telemetryFromSpans(const std::vector<Span>& spans);

}  // namespace scishuffle::obs
