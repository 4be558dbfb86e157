// Span tracing for the shuffle data path. A TraceRecorder collects completed
// spans (name, category, thread, start, duration, numeric args) from any
// thread; the runtime installs one as the *active* recorder of the job's
// threads for the duration of a job, and instrumentation sites open
// ScopedSpans that are no-ops (one TLS read and one relaxed atomic load)
// while no recorder is active — which is what keeps disabled-tracing
// overhead under the 2% budget.
//
// Export is Chrome trace_event JSON ("ph":"X" complete events), loadable in
// chrome://tracing or https://ui.perfetto.dev. Timestamps are steady-clock
// microseconds relative to the recorder's construction, so spans from every
// thread share one timeline.
#pragma once

#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/annotations.h"
#include "io/common.h"

namespace scishuffle::obs {

/// One completed span. Args are numeric (byte counts, record counts, task
/// indices) — everything the shuffle instrumentation needs to attach.
struct Span {
  std::string name;
  std::string category;
  u32 tid = 0;      // stable small per-thread id assigned by the recorder
  u64 start_us = 0; // relative to the recorder epoch
  u64 dur_us = 0;
  std::vector<std::pair<std::string, u64>> args;
};

/// One "ph":"C" counter sample: a point on a named time-series track. The
/// obs sampler appends these so chrome://tracing/Perfetto renders memory-
/// and queue-depth-over-time alongside the spans.
struct CounterSample {
  std::string name;
  u64 ts_us = 0;  // relative to the recorder epoch
  u64 value = 0;
};

class TraceRecorder {
 public:
  TraceRecorder();

  /// Microseconds since this recorder's epoch (steady clock).
  u64 nowUs() const;

  /// Stable small id for a thread; ids are assigned in first-seen order.
  u32 tidOf(std::thread::id id);

  /// Thread-safe; spans may arrive from any pool thread in any order.
  void record(Span span);

  /// Records one counter sample per (name, value) pair, all sharing one
  /// timestamp assigned under the recorder lock — so samples land on the
  /// trace timeline in strictly non-decreasing ts order no matter which
  /// thread takes them. Returns the assigned timestamp.
  u64 recordCounters(const std::map<std::string, u64>& values);

  std::vector<Span> snapshot() const;
  std::vector<CounterSample> counterSamples() const;
  std::size_t spanCount() const;

  /// Chrome trace_event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}.
  /// Spans are emitted sorted by start time so the file diffs stably.
  void writeChromeTrace(std::ostream& os) const;
  void writeChromeTrace(const std::filesystem::path& path) const;

 private:
  const u64 epochUs_;  // steady-clock us at construction
  mutable Mutex mutex_{lock_rank::kTraceRecorder};
  std::vector<Span> spans_ GUARDED_BY(mutex_);
  std::vector<CounterSample> counters_ GUARDED_BY(mutex_);
  std::unordered_map<std::thread::id, u32> tids_ GUARDED_BY(mutex_);
};

/// The recorder instrumentation sites write to; nullptr = tracing disabled.
/// Resolution order: the recorder of the job running on the calling thread
/// (its obs::JobSinks, installed by the job's TelemetrySession and carried
/// across pool hops, see io/task_tag.h), else the process-global recorder
/// (setActiveTrace). One TLS read and one relaxed atomic load; no lock.
TraceRecorder* activeTrace();

/// Installs (or clears, with nullptr) the process-global recorder — the
/// distributed coordinator's and workers' path, and the fallback for threads
/// that carry no job recorder. The caller owns the recorder and must clear it
/// before destruction; global installs do not nest.
void setActiveTrace(TraceRecorder* recorder);

/// RAII span against the active recorder (or an explicit one): records
/// [construction, destruction) on destruction. When tracing is disabled the
/// constructor is activeTrace()'s two loads and everything else no-ops.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category)
      : ScopedSpan(activeTrace(), name, category) {}
  ScopedSpan(TraceRecorder* recorder, const char* name, const char* category);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric arg; callable any time before destruction.
  void arg(const char* key, u64 value);

  bool enabled() const { return recorder_ != nullptr; }

 private:
  TraceRecorder* recorder_;
  Span span_;
};

}  // namespace scishuffle::obs
