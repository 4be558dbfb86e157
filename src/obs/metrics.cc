#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace scishuffle::obs {

// ---------------------------------------------------------------- snapshot

u64 HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0;
  check(p > 0.0 && p <= 1.0, "percentile p must be in (0, 1]");
  // 1-based rank of the target observation.
  const u64 rank = std::max<u64>(1, static_cast<u64>(std::ceil(p * static_cast<double>(count))));
  u64 cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    if (cumulative + counts[i] >= rank) {
      if (i >= bounds.size()) return max;  // overflow bucket
      const u64 lo = i == 0 ? 0 : bounds[i - 1];
      const u64 hi = bounds[i];
      const double within =
          static_cast<double>(rank - cumulative) / static_cast<double>(counts[i]);
      const u64 estimate = lo + static_cast<u64>(std::llround(
                                    within * static_cast<double>(hi - lo)));
      return std::clamp(estimate, min, max);
    }
    cumulative += counts[i];
  }
  return max;
}

void HistogramSnapshot::writeJson(JsonWriter& w) const {
  w.beginObject();
  w.kv("name", name);
  w.kv("unit", unit);
  w.kv("count", count);
  w.kv("sum", sum);
  w.kv("min", min);
  w.kv("max", max);
  w.kv("mean", mean());
  w.kv("p50", p50());
  w.kv("p95", p95());
  w.kv("p99", p99());
  w.key("bounds").beginArray();
  for (const u64 b : bounds) w.value(b);
  w.endArray();
  w.key("counts").beginArray();
  for (const u64 c : counts) w.value(c);
  w.endArray();
  w.endObject();
}

// ---------------------------------------------------------------- histogram

Histogram::Histogram(std::string name, std::string unit, std::vector<u64> bounds)
    : name_(std::move(name)), unit_(std::move(unit)), bounds_(std::move(bounds)) {
  check(!bounds_.empty(), "histogram needs at least one bucket bound");
  check(std::is_sorted(bounds_.begin(), bounds_.end()) &&
            std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
        "histogram bounds must be strictly ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::record(u64 value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  MutexLock lock(mutex_);
  ++counts_[bucket];
  sum_ += value;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.name = name_;
  s.unit = unit_;
  s.bounds = bounds_;
  MutexLock lock(mutex_);
  s.counts = counts_;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  return s;
}

std::vector<u64> Histogram::exponentialBounds(u64 first, std::size_t count) {
  check(first >= 1 && count >= 1, "exponentialBounds needs first >= 1, count >= 1");
  std::vector<u64> bounds;
  bounds.reserve(count);
  u64 bound = first;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    if (bound > (u64{1} << 62)) break;  // avoid overflow past 2^63
    bound *= 2;
  }
  return bounds;
}

// ---------------------------------------------------------------- telemetry

const HistogramSnapshot* JobTelemetry::findHistogram(std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void JobTelemetry::writeJson(JsonWriter& w) const {
  w.beginObject();
  w.kv("span_count", span_count);
  w.key("counters").beginObject();
  for (const auto& [name, value] : counters) w.kv(name, value);
  w.endObject();
  w.key("gauges").beginObject();
  for (const auto& [name, value] : gauges) w.kv(name, value);
  w.endObject();
  w.key("histograms").beginArray();
  for (const auto& h : histograms) h.writeJson(w);
  w.endArray();
  w.endObject();
}

// ---------------------------------------------------------------- folding

JobTelemetry telemetryFromSpans(const std::vector<Span>& spans) {
  std::map<std::string, Histogram> histograms;  // ordered: snapshots sorted by name
  const auto histogram = [&histograms](const std::string& name, const char* unit,
                                       std::vector<u64> bounds) -> Histogram& {
    return histograms.try_emplace(name, name, unit, std::move(bounds)).first->second;
  };
  for (const Span& span : spans) {
    histogram(span.name + "_us", "us", Histogram::defaultLatencyBounds()).record(span.dur_us);
    for (const auto& [key, value] : span.args) {
      // Size distributions: any arg the instrumentation named in bytes.
      if (key.find("bytes") != std::string::npos) {
        histogram(span.name + "." + key, "bytes", Histogram::defaultSizeBounds()).record(value);
      }
    }
  }
  JobTelemetry t;
  t.span_count = spans.size();
  t.histograms.reserve(histograms.size());
  for (const auto& [name, h] : histograms) t.histograms.push_back(h.snapshot());
  return t;
}

}  // namespace scishuffle::obs
