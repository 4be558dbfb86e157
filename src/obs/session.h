// One run's telemetry: the span recorder, the metrics JSONL stream and the
// gauge sampler that every process role sets up the same way — a standalone
// runJob, a job under the job service, the distributed coordinator and each
// of its workers.
//
// The constructor makes only what was asked for (a recorder when there is a
// trace path or histograms are collected, a stream when there is a metrics
// path), installs it — in the process-global slots for tag 0, bound to the
// task tag otherwise — and starts the sampler. finish() stops the sampler,
// writes the stream's summary line, uninstalls, folds the spans and writes
// the Chrome trace. A session destroyed without finish() (the error path)
// stops the sampler and uninstalls but writes no summary, so the stream of a
// failed run ends without one, like a crashed run's.
#pragma once

#include <filesystem>
#include <memory>

#include "io/common.h"
#include "obs/sampler.h"

namespace scishuffle::obs {

struct JobTelemetry;

class TelemetrySession {
 public:
  /// `tracePath`: Chrome trace written by finish(), empty = none.
  /// `collectHistograms`: fold the spans into JobTelemetry histograms.
  /// `metricsPath`: scishuffle.metrics.v1 JSONL, empty = none.
  /// `sampleIntervalMs`: 0 = no sampler thread and no samples.
  /// `tag`: the task tag to bind to (io/task_tag.h); 0 = the global slots.
  TelemetrySession(std::filesystem::path tracePath, bool collectHistograms,
                   const std::filesystem::path& metricsPath, u64 sampleIntervalMs, u64 tag);
  ~TelemetrySession();

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  /// Ends the session: takes the final sample, writes the summary line,
  /// uninstalls, then fills `out` — the span histograms (when collected) and
  /// span_count, and `<gauge>.max` / `<gauge>.mean` per sampled gauge — and
  /// writes the trace file. Counters stay the caller's. Call at most once.
  void finish(JobTelemetry& out);

 private:
  void uninstall();

  const std::filesystem::path tracePath_;
  const bool collectHistograms_;
  const u64 tag_;
  std::unique_ptr<TraceRecorder> recorder_;
  std::unique_ptr<MetricsStream> stream_;
  Sampler sampler_;  // after the sinks it writes to
  bool installed_ = true;
};

}  // namespace scishuffle::obs
