// JSONL metrics export, schema `scishuffle.metrics.v1` (grammar in
// docs/OBSERVABILITY.md). One self-describing line per record so a run can
// be watched live with `tail -f` and summarized offline by `scishuffle_cli
// stat`:
//   header   — schema id, sampler interval, clock
//   sample   — one gauge snapshot (written by the obs Sampler)
//   event    — one structured event (retry / re-fetch / corruption /
//              backpressure, wired from the PR 3 recovery machinery)
//   summary  — final per-gauge max/mean rollups + event counts
//
// The runtime installs one stream as the *active* stream of the job's threads
// for the duration of a job (mirroring the active TraceRecorder); emitEvent()
// at instrumentation sites is one TLS read and one relaxed atomic load and
// nothing else while no stream is active, which keeps disabled-telemetry
// overhead inside the tracing budget.
#pragma once

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "io/annotations.h"
#include "io/common.h"
#include "obs/sampler.h"

namespace scishuffle::obs {

inline constexpr const char* kMetricsSchema = "scishuffle.metrics.v1";

class MetricsStream {
 public:
  /// Opens `path` (truncating) and writes the header line. `intervalMs` is
  /// recorded in the header so readers know the intended cadence (0 =
  /// events only, no sampler).
  MetricsStream(const std::filesystem::path& path, u64 intervalMs);

  MetricsStream(const MetricsStream&) = delete;
  MetricsStream& operator=(const MetricsStream&) = delete;

  /// Microseconds since this stream's construction (steady clock) — every
  /// ts_us in the file is on this one timeline.
  u64 nowUs() const;

  /// Appends one "sample" line; returns the timestamp it was stamped with.
  /// Timestamps are assigned under the stream lock, so lines land in the
  /// file in non-decreasing ts_us order.
  u64 writeSample(const std::map<std::string, u64>& gauges);

  /// Appends one "event" line and tallies it for the summary.
  u64 writeEvent(const char* name, const char* site, u64 value);

  /// Appends the final "summary" line (per-gauge max/mean/peak_ts_us, event
  /// counts). Call once, after the sampler stopped.
  void writeSummary(const std::map<std::string, GaugeRollup>& rollups);

  std::map<std::string, u64> eventCounts() const;

 private:
  void writeLine(const std::string& line) REQUIRES(mutex_);

  const u64 epochUs_;
  mutable Mutex mutex_{lock_rank::kMetricsStream};
  std::ofstream out_ GUARDED_BY(mutex_);
  std::map<std::string, u64> eventCounts_ GUARDED_BY(mutex_);
};

/// The stream emitEvent() writes to; nullptr = metrics disabled. Resolution
/// order mirrors activeTrace(): the stream of the job running on the calling
/// thread (its obs::JobSinks, see io/task_tag.h), else the process-global
/// stream (setActiveMetrics — the coordinator's and workers' path).
MetricsStream* activeMetrics();

/// Installs (or clears, with nullptr) the process-global stream. The caller
/// owns the stream and must clear it before destruction; global installs do
/// not nest.
void setActiveMetrics(MetricsStream* stream);

/// Emits a structured event (see obs::event for the taxonomy; `site` names
/// the emitting location, normally a fault-injection site constant) to
/// activeMetrics() alone: a job's events stay in the job's stream. No lock,
/// and no write at all when disabled.
void emitEvent(const char* name, const char* site, u64 value = 0);

}  // namespace scishuffle::obs
