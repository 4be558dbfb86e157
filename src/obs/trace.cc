#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "io/clock.h"
#include "io/task_tag.h"
#include "obs/json.h"
#include "obs/session.h"

namespace scishuffle::obs {

namespace {

std::atomic<TraceRecorder*> g_active{nullptr};

}  // namespace

TraceRecorder* activeTrace() {
  if (const JobSinks* sinks = currentJobSinks(); sinks != nullptr && sinks->recorder != nullptr) {
    return sinks->recorder;
  }
  return g_active.load(std::memory_order_acquire);
}

void setActiveTrace(TraceRecorder* recorder) {
  g_active.store(recorder, std::memory_order_release);
}

TraceRecorder::TraceRecorder() : epochUs_(steadyNowUs()) {}

u64 TraceRecorder::nowUs() const {
  const u64 now = steadyNowUs();
  return now >= epochUs_ ? now - epochUs_ : 0;
}

u32 TraceRecorder::tidOf(std::thread::id id) {
  MutexLock lock(mutex_);
  const auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  const u32 tid = static_cast<u32>(tids_.size() + 1);
  tids_.emplace(id, tid);
  return tid;
}

void TraceRecorder::record(Span span) {
  MutexLock lock(mutex_);
  spans_.push_back(std::move(span));
}

u64 TraceRecorder::recordCounters(const std::map<std::string, u64>& values) {
  MutexLock lock(mutex_);
  // The timestamp is read under the lock: a later call always gets a later
  // (or equal) steady-clock reading, so the counter track stays monotonic.
  const u64 now = steadyNowUs();
  const u64 ts = now >= epochUs_ ? now - epochUs_ : 0;
  for (const auto& [name, value] : values) {
    counters_.push_back(CounterSample{name, ts, value});
  }
  return ts;
}

std::vector<Span> TraceRecorder::snapshot() const {
  MutexLock lock(mutex_);
  return spans_;
}

std::vector<CounterSample> TraceRecorder::counterSamples() const {
  MutexLock lock(mutex_);
  return counters_;
}

std::size_t TraceRecorder::spanCount() const {
  MutexLock lock(mutex_);
  return spans_.size();
}

void TraceRecorder::writeChromeTrace(std::ostream& os) const {
  std::vector<Span> spans = snapshot();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) { return a.start_us < b.start_us; });
  JsonWriter w(os);
  w.beginObject();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").beginArray();
  for (const Span& s : spans) {
    w.beginObject();
    w.kv("name", s.name);
    w.kv("cat", s.category);
    w.kv("ph", "X");
    w.kv("ts", s.start_us);
    w.kv("dur", s.dur_us);
    w.kv("pid", 1);
    w.kv("tid", static_cast<u64>(s.tid));
    if (!s.args.empty()) {
      w.key("args").beginObject();
      for (const auto& [key, value] : s.args) w.kv(key, value);
      w.endObject();
    }
    w.endObject();
  }
  // Counter tracks after the spans: already in ts order (one lock assigns
  // the timestamps), so the file diffs stably without a re-sort.
  for (const CounterSample& c : counterSamples()) {
    w.beginObject();
    w.kv("name", c.name);
    w.kv("ph", "C");
    w.kv("ts", c.ts_us);
    w.kv("pid", 1);
    w.key("args").beginObject();
    w.kv("value", c.value);
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  os << "\n";
}

void TraceRecorder::writeChromeTrace(const std::filesystem::path& path) const {
  std::ofstream file(path);
  check(file.good(), "cannot open trace output file");
  writeChromeTrace(file);
}

ScopedSpan::ScopedSpan(TraceRecorder* recorder, const char* name, const char* category)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.name = name;
  span_.category = category;
  span_.start_us = recorder_->nowUs();
}

void ScopedSpan::arg(const char* key, u64 value) {
  if (recorder_ == nullptr) return;
  span_.args.emplace_back(key, value);
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  const u64 end = recorder_->nowUs();
  span_.dur_us = end >= span_.start_us ? end - span_.start_us : 0;
  span_.tid = recorder_->tidOf(std::this_thread::get_id());
  recorder_->record(std::move(span_));
}

}  // namespace scishuffle::obs
