// Offline reader for scishuffle.metrics.v1 JSONL files: `scishuffle_cli
// stat run.metrics.jsonl` summarizes a run — peak RSS and time-to-peak,
// per-gauge mean and p95 over the recorded samples, event counts — without
// loading a trace UI. Percentiles are computed from the raw sample lines
// (nearest-rank), not trusted from the file's own summary line.
#pragma once

#include <filesystem>
#include <istream>
#include <map>
#include <ostream>
#include <string>

#include "io/common.h"

namespace scishuffle::obs {

/// Per-gauge statistics over every "sample" line in the file.
struct GaugeTimeline {
  u64 peak = 0;
  u64 peak_ts_us = 0;  // timestamp of the first sample attaining the peak
  double mean = 0.0;
  u64 p95 = 0;  // nearest-rank 95th percentile of the sampled values
  u64 samples = 0;
};

struct MetricsSummary {
  std::string schema;    // from the header line; empty if none was found
  u64 interval_ms = 0;
  u64 samples = 0;       // "sample" lines
  u64 events = 0;        // "event" lines
  u64 first_ts_us = 0;   // ts of the first sample/event line
  u64 last_ts_us = 0;    // ts of the last sample/event line
  std::map<std::string, GaugeTimeline> gauges;
  std::map<std::string, u64> event_counts;
  u64 skipped_lines = 0;  // malformed, mistyped or unknown-type lines (tolerated)
};

/// Parses a metrics stream line by line with obs::parseJson. A line that is
/// not strict JSON, or whose type, ts_us, gauge values or event name has the
/// wrong type, is counted in skipped_lines rather than failing the whole
/// file, so a truncated live stream (job still running, or killed mid-write)
/// still summarizes.
MetricsSummary summarizeMetricsJsonl(std::istream& in);

/// Throws std::runtime_error when the file cannot be opened.
MetricsSummary summarizeMetricsFile(const std::filesystem::path& path);

/// Human-readable rendering (the `stat` subcommand's output): headline peak
/// RSS + time-to-peak, a gauge table (peak / @s / mean / p95), event counts.
void renderMetricsSummary(const MetricsSummary& summary, std::ostream& out);

}  // namespace scishuffle::obs
