#include "obs/session.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/metrics_stream.h"
#include "obs/trace.h"

namespace scishuffle::obs {

TelemetrySession::TelemetrySession(std::filesystem::path tracePath, bool collectHistograms,
                                   const std::filesystem::path& metricsPath,
                                   u64 sampleIntervalMs, Install where)
    : tracePath_(std::move(tracePath)),
      collectHistograms_(collectHistograms),
      recorder_((!tracePath_.empty() || collectHistograms_) ? std::make_unique<TraceRecorder>()
                                                             : nullptr),
      stream_(metricsPath.empty() ? nullptr
                                  : std::make_unique<MetricsStream>(metricsPath, sampleIntervalMs)),
      sinks_{recorder_.get(), stream_.get()},
      sampler_(sampleIntervalMs, processGauges(), recorder_.get(), stream_.get()) {
  sampler_.start();
  if (recorder_ == nullptr && stream_ == nullptr) return;
  if (where == Install::kCallingThread) {
    threadInstall_.emplace(&sinks_);
  } else {
    if (recorder_ != nullptr) setActiveTrace(recorder_.get());
    if (stream_ != nullptr) setActiveMetrics(stream_.get());
    installedGlobally_ = true;
  }
}

TelemetrySession::~TelemetrySession() {
  sampler_.stop();
  uninstall();
}

void TelemetrySession::uninstall() {
  threadInstall_.reset();
  if (!installedGlobally_) return;
  installedGlobally_ = false;
  if (recorder_ != nullptr) setActiveTrace(nullptr);
  if (stream_ != nullptr) setActiveMetrics(nullptr);
}

void TelemetrySession::finish(JobTelemetry& out) {
  sampler_.stop();  // takes the final sample
  const auto rollups = sampler_.rollups();
  if (stream_ != nullptr) stream_->writeSummary(rollups);
  uninstall();
  if (recorder_ != nullptr) {
    const std::vector<Span> spans = recorder_->snapshot();
    if (collectHistograms_) out.histograms = telemetryFromSpans(spans).histograms;
    out.span_count = spans.size();
    if (!tracePath_.empty()) recorder_->writeChromeTrace(tracePath_);
  }
  for (const auto& [name, r] : rollups) {
    out.gauges[name + ".max"] = r.max;
    out.gauges[name + ".mean"] = static_cast<u64>(r.mean() + 0.5);
  }
}

}  // namespace scishuffle::obs
