// One run's telemetry: the span recorder, the metrics JSONL stream and the
// gauge sampler that every process role sets up the same way — runJob, the
// distributed coordinator and each of its workers.
//
// The constructor makes only what was asked for (a recorder when there is a
// trace path or histograms are collected, a stream when there is a metrics
// path), installs it — on the calling thread for a job, whose pool tasks
// inherit it (io/task_tag.h), or in the process-global slots — and starts
// the sampler. A session that made nothing installs nothing. finish() stops
// the sampler, writes the stream's summary line, uninstalls, folds the spans
// and writes the Chrome trace. A session destroyed without finish() (the
// error path) stops the sampler and uninstalls but writes no summary, so the
// stream of a failed run ends without one, like a crashed run's.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>

#include "io/common.h"
#include "io/task_tag.h"
#include "obs/sampler.h"

namespace scishuffle::obs {

struct JobTelemetry;

/// The sinks of the job running on a thread. A pointer to one travels with
/// the job's threads across pool hops (io/task_tag.h); activeTrace() and
/// emitEvent() read it. A null member falls back to the process-global slot.
struct JobSinks {
  TraceRecorder* recorder = nullptr;
  MetricsStream* stream = nullptr;
};

class TelemetrySession {
 public:
  /// Where the session installs the recorder and stream it made.
  enum class Install {
    kCallingThread,  // a job (runJob): its threads and the pool work they submit
    kGlobal,         // the coordinator and workers, whose events come from
                     // threads no job owns (control handlers, monitor, scheduler)
  };

  /// `tracePath`: Chrome trace written by finish(), empty = none.
  /// `collectHistograms`: fold the spans into JobTelemetry histograms.
  /// `metricsPath`: scishuffle.metrics.v1 JSONL, empty = none.
  /// `sampleIntervalMs`: 0 = no sampler thread and no samples.
  /// Construct, finish() and destroy on one thread: kCallingThread installs
  /// on the constructing thread and uninstalls on the finishing one.
  TelemetrySession(std::filesystem::path tracePath, bool collectHistograms,
                   const std::filesystem::path& metricsPath, u64 sampleIntervalMs,
                   Install where);
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
  std::unique_ptr<TraceRecorder> recorder_;
  std::unique_ptr<MetricsStream> stream_;
  const JobSinks sinks_;  // after the sinks it points to
  Sampler sampler_;       // after the sinks it writes to
  std::optional<ScopedJobSinks> threadInstall_;
  bool installedGlobally_ = false;
};

}  // namespace scishuffle::obs
