#include "obs/metrics_stream.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "io/clock.h"
#include "io/task_tag.h"
#include "obs/json.h"
#include "obs/session.h"

namespace scishuffle::obs {

namespace {

std::atomic<MetricsStream*> g_active{nullptr};

}  // namespace

MetricsStream* activeMetrics() {
  const JobSinks* sinks = currentJobSinks();
  MetricsStream* job = sinks != nullptr ? sinks->stream : nullptr;
  return job != nullptr ? job : g_active.load(std::memory_order_acquire);
}

void setActiveMetrics(MetricsStream* stream) {
  g_active.store(stream, std::memory_order_release);
}

void emitEvent(const char* name, const char* site, u64 value) {
  if (MetricsStream* stream = activeMetrics()) stream->writeEvent(name, site, value);
}

MetricsStream::MetricsStream(const std::filesystem::path& path, u64 intervalMs)
    : epochUs_(steadyNowUs()) {
  MutexLock lock(mutex_);
  out_.open(path, std::ios::trunc);
  check(out_.good(), "cannot open metrics output file");
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.beginObject();
  w.kv("schema", kMetricsSchema);
  w.kv("type", "header");
  w.kv("interval_ms", intervalMs);
  w.kv("clock", "steady");
  w.kv("ts_unit", "us");
  w.endObject();
  writeLine(os.str());
}

u64 MetricsStream::nowUs() const {
  const u64 now = steadyNowUs();
  return now >= epochUs_ ? now - epochUs_ : 0;
}

u64 MetricsStream::writeSample(const std::map<std::string, u64>& gauges) {
  MutexLock lock(mutex_);
  const u64 ts = nowUs();  // stamped under the lock: file stays ts-ordered
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.beginObject();
  w.kv("type", "sample");
  w.kv("ts_us", ts);
  w.key("gauges").beginObject();
  for (const auto& [name, value] : gauges) w.kv(name, value);
  w.endObject();
  w.endObject();
  writeLine(os.str());
  return ts;
}

u64 MetricsStream::writeEvent(const char* name, const char* site, u64 value) {
  MutexLock lock(mutex_);
  const u64 ts = nowUs();
  ++eventCounts_[name];
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.beginObject();
  w.kv("type", "event");
  w.kv("ts_us", ts);
  w.kv("name", name);
  w.kv("site", site);
  w.kv("value", value);
  w.endObject();
  writeLine(os.str());
  return ts;
}

void MetricsStream::writeSummary(const std::map<std::string, GaugeRollup>& rollups) {
  MutexLock lock(mutex_);
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.beginObject();
  w.kv("type", "summary");
  w.kv("ts_us", nowUs());
  u64 samples = 0;
  for (const auto& [name, r] : rollups) samples = std::max(samples, r.samples);
  w.kv("samples", samples);
  w.key("gauges").beginObject();
  for (const auto& [name, r] : rollups) {
    w.key(name).beginObject();
    w.kv("max", r.max);
    w.kv("mean", r.mean());  // double: needs the locale-independent formatter
    w.kv("peak_ts_us", r.peak_ts_us);
    w.endObject();
  }
  w.endObject();
  w.key("events").beginObject();
  for (const auto& [name, count] : eventCounts_) w.kv(name, count);
  w.endObject();
  w.endObject();
  writeLine(os.str());
}

std::map<std::string, u64> MetricsStream::eventCounts() const {
  MutexLock lock(mutex_);
  return eventCounts_;
}

void MetricsStream::writeLine(const std::string& line) {
  out_ << line << '\n';
  out_.flush();  // line-buffered on purpose: `tail -f` sees whole records
}

}  // namespace scishuffle::obs
