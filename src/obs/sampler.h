// Continuous runtime telemetry: a process-wide gauge registry plus the
// background sampler thread that turns end-of-run aggregates into
// time-series data. Components register gauge sources (RSS, shuffle queue
// depth, thread-pool load, per-stage resident bytes) with
// processGauges(); the Sampler snapshots every source at a fixed interval
// (JobConfig::sample_interval_ms, default off) and fans each sample out to
//   * the active TraceRecorder as "ph":"C" counter events (memory-over-time
//     under the spans in chrome://tracing / Perfetto),
//   * the active MetricsStream as scishuffle.metrics.v1 JSONL lines, and
//   * per-gauge max/mean rollups merged into JobResult::telemetry.
// A per-sample callback turns the same readings into control: the job
// service's memory governor (src/service/governor.h) runs its throttle law
// from one (docs/OBSERVABILITY.md, "Continuous telemetry").
//
// Thread model: gauge callbacks run on the sampler thread, so they must be
// thread-safe and non-blocking — components expose relaxed atomic mirrors
// or short leaf-lock accessors, never their task-local state. A
// GaugeRegistration unregisters under the registry lock, which blocks until
// any in-flight sample() finishes; a component that declares its
// registration as its *last* member therefore can never be sampled after
// (or while) its state is torn down. Lock discipline uses the annotated
// Mutex/CondVar per the PR 5 standing requirement.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <thread>

#include "io/thread.h"
#include <vector>

#include "io/annotations.h"
#include "io/common.h"

namespace scishuffle::obs {

class TraceRecorder;
class MetricsStream;

/// Canonical gauge names. Every constant must be unique, referenced outside
/// this subsystem's declaring files, and documented in the gauge taxonomy
/// table of docs/OBSERVABILITY.md — `tools/lint` enforces all three, same
/// contract as the hadoop counters.
namespace gauge {
// Process resident set, read from /proc/self/statm (getrusage peak as the
// portable fallback). Injected by the sampler itself, present in every run.
inline constexpr const char* kProcessRssBytes = "process.rss_bytes";
// ShuffleServer: segments published but not yet fetched, and their bytes.
inline constexpr const char* kShuffleInflightSegments = "shuffle.inflight_segments";
inline constexpr const char* kShufflePendingBytes = "shuffle.pending_bytes";
// Summed over the job's live pools (codec + map slots + reduce slots).
inline constexpr const char* kThreadPoolQueueDepth = "threadpool.queue_depth";
inline constexpr const char* kThreadPoolActiveWorkers = "threadpool.active_workers";
// Stage-resident bytes: map-side sort buffers and reduce-side merge inputs.
inline constexpr const char* kSpillBufferedBytes = "stage.spill.buffered_bytes";
inline constexpr const char* kMergeResidentBytes = "stage.merge.resident_bytes";
// ShuffleServer: bytes spilled to the overflow directory instead of held in
// the in-memory queues (governor backpressure; docs/SERVICE.md).
inline constexpr const char* kShuffleOverflowBytes = "shuffle.overflow_bytes";
// Job service (src/service): jobs currently executing / waiting in the
// admission queue.
inline constexpr const char* kServiceJobsRunning = "service.jobs_running";
inline constexpr const char* kServiceJobsQueued = "service.jobs_queued";
// Distributed coordinator (src/service/coordinator.h): workers currently
// believed alive, and map tasks not yet published (pending + assigned).
inline constexpr const char* kDistWorkersAlive = "dist.workers_alive";
inline constexpr const char* kDistTasksPending = "dist.tasks_pending";
}  // namespace gauge

/// Structured-event names for the metrics JSONL stream (the PR 3 recovery
/// machinery made visible as a timeline). Same lint contract as gauges.
namespace event {
inline constexpr const char* kShuffleFetchRetry = "shuffle.fetch_retry";
inline constexpr const char* kShufflePublishRetry = "shuffle.publish_retry";
inline constexpr const char* kShuffleCorruptionDetected = "shuffle.corruption_detected";
inline constexpr const char* kShuffleSegmentRefetch = "shuffle.segment_refetch";
inline constexpr const char* kShuffleBackpressureWait = "shuffle.backpressure_wait";
inline constexpr const char* kShuffleAbort = "shuffle.abort";
inline constexpr const char* kTaskRetry = "task.retry";
// Job-service lifecycle + governor (docs/SERVICE.md). Values carry the job
// id (admit/reject/cancel) or the sampled RSS (throttle).
inline constexpr const char* kShuffleOverflowSpill = "shuffle.overflow_spill";
inline constexpr const char* kServiceJobAdmit = "service.job_admit";
inline constexpr const char* kServiceJobReject = "service.job_reject";
inline constexpr const char* kServiceJobCancel = "service.job_cancel";
inline constexpr const char* kServiceGovernorThrottle = "service.governor_throttle";
// Worker lifecycle in the distributed coordinator. Values carry the worker
// id (spawn/lost) or the re-executed map index (task_reexec); the site field
// says *why* a worker was declared lost (docs/CLUSTER.md).
inline constexpr const char* kWorkerSpawned = "worker.spawned";
inline constexpr const char* kWorkerLost = "worker.lost";
inline constexpr const char* kDistTaskReexec = "dist.task_reexec";
}  // namespace event

/// A gauge source: returns the current value. Called from the sampler
/// thread while the registry lock is held, so it must be thread-safe,
/// non-blocking, and must never call back into the registry.
using GaugeFn = std::function<u64()>;

class GaugeRegistry;

/// RAII handle for one registered gauge source; unregisters on destruction
/// (blocking until any in-flight sample() completes). Movable so components
/// can hold one as a member; a default-constructed registration is empty.
class GaugeRegistration {
 public:
  GaugeRegistration() = default;
  GaugeRegistration(GaugeRegistry* registry, u64 id) : registry_(registry), id_(id) {}
  ~GaugeRegistration();

  GaugeRegistration(GaugeRegistration&& other) noexcept
      : registry_(other.registry_), id_(other.id_) {
    other.registry_ = nullptr;
  }
  GaugeRegistration& operator=(GaugeRegistration&& other) noexcept;
  GaugeRegistration(const GaugeRegistration&) = delete;
  GaugeRegistration& operator=(const GaugeRegistration&) = delete;

 private:
  GaugeRegistry* registry_ = nullptr;
  u64 id_ = 0;
};

/// Named gauge sources behind one lock. Several sources may share a name
/// (e.g. every live ThreadPool registers `threadpool.queue_depth`); a
/// sample sums them, so the gauge reads as the process-wide total.
class GaugeRegistry {
 public:
  GaugeRegistry() = default;
  GaugeRegistry(const GaugeRegistry&) = delete;
  GaugeRegistry& operator=(const GaugeRegistry&) = delete;

  [[nodiscard]] GaugeRegistration add(std::string name, GaugeFn fn);

  /// Snapshot of every registered gauge (same-name sources summed).
  std::map<std::string, u64> sample() const;

  std::size_t sourceCount() const;

 private:
  friend class GaugeRegistration;
  void remove(u64 id);

  struct Source {
    u64 id = 0;
    std::string name;
    GaugeFn fn;
  };

  mutable Mutex mutex_{lock_rank::kGaugeRegistry};
  std::vector<Source> sources_ GUARDED_BY(mutex_);
  u64 nextId_ GUARDED_BY(mutex_) = 1;
};

/// The registry components register into and the sampler snapshots.
GaugeRegistry& processGauges();

/// Current process RSS in bytes: resident pages from /proc/self/statm times
/// the page size. Where /proc is unavailable, falls back to getrusage's
/// ru_maxrss — the *peak* RSS, a documented upper-bound stand-in — and to 0
/// when even that is missing.
u64 currentRssBytes();

/// Per-gauge rollup over a run; merged into JobResult::telemetry as
/// "<gauge>.max" / "<gauge>.mean" and written (mean as a double) to the
/// metrics summary line.
struct GaugeRollup {
  u64 max = 0;
  u64 peak_ts_us = 0;  // sample timestamp of max: metrics-stream timeline
                       // when streaming, sampler-epoch-relative otherwise
  u64 sum = 0;
  u64 samples = 0;

  double mean() const {
    return samples == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(samples);
  }
};

/// Called once per sample with the gauge map (process.rss_bytes included),
/// after the rollups took it. Runs on whichever thread took the sample —
/// start()'s caller, the sampler thread, or stop()'s caller — and outside
/// the sampler's lock, so it may take locks ranked below obs.sampler.
using SampleFn = std::function<void(const std::map<std::string, u64>& gauges)>;

/// The background sampler thread. Construction is passive; start() takes the
/// t≈0 sample on the caller's thread, then spawns the thread that samples
/// once per interval (a no-op at interval 0, so a default config never pays
/// for a thread or a sample); stop() joins it and takes one final sample —
/// every run with the sampler on therefore records at least two samples
/// (t≈0 and job end), and stop() is idempotent and safe to race with the
/// destructor. The recorder, stream and callback may each be null; rollups
/// accumulate regardless so telemetry summaries work even when nothing is
/// exported.
class Sampler {
 public:
  Sampler(u64 intervalMs, GaugeRegistry& registry, TraceRecorder* recorder,
          MetricsStream* stream, SampleFn onSample = {});
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start();
  void stop();
  bool running() const;

  u64 intervalMs() const { return intervalMs_; }
  u64 sampleCount() const;

  /// Rollups accumulated so far; call after stop() for the full run.
  std::map<std::string, GaugeRollup> rollups() const;

 private:
  void loop();
  void takeSample();

  const u64 intervalMs_;
  const u64 epochUs_;  // steady-clock us at construction (rollup fallback)
  GaugeRegistry* registry_;
  TraceRecorder* recorder_;
  MetricsStream* stream_;
  const SampleFn onSample_;

  mutable Mutex mutex_{lock_rank::kSampler};
  CondVar wake_;
  bool running_ GUARDED_BY(mutex_) = false;
  bool stopRequested_ GUARDED_BY(mutex_) = false;
  Thread thread_ GUARDED_BY(mutex_);
  u64 samples_ GUARDED_BY(mutex_) = 0;
  std::map<std::string, GaugeRollup> rollups_ GUARDED_BY(mutex_);
};

}  // namespace scishuffle::obs
