// Job runtime: executes map tasks on map slots, shuffles materialized
// segments to reducers, merges, and drives the reduce-side grouper —
// the full data path of the paper's Fig. 1, steps 1-7.
#pragma once

#include <atomic>
#include <exception>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <vector>

#include "hadoop/counters.h"
#include "hadoop/job.h"
#include "hadoop/spill.h"
#include "io/annotations.h"
#include "obs/metrics.h"

namespace scishuffle {
class Codec;
class ThreadPool;
}

namespace scishuffle::hadoop {

class ShuffleServer;

/// A map task is a closure over its input split; it emits intermediate
/// key/value pairs through the provided EmitFn.
struct MapTask {
  std::function<void(const EmitFn& emit)> run;
};

/// Wall-clock phase durations measured during the run (microseconds).
/// These are *local machine* timings; the cluster cost model combines them
/// with byte counters to project the paper's 5-node setup.
///
/// Reducers fetch while maps still run, so shuffle_us is the
/// first-publish..last-fetch window, shuffle_overlap_us is the part of that
/// window hidden under the map phase, and map_phase_us + reduce_phase_us is
/// the job wall clock (reduce_phase_us is the tail after the last map
/// finished).
struct PhaseTimings {
  u64 map_phase_us = 0;        // all map tasks, wall time of the phase
  u64 shuffle_us = 0;          // segment hand-off window
  u64 reduce_phase_us = 0;     // merge + reduce, wall time of the phase
  u64 shuffle_overlap_us = 0;  // shuffle wall time overlapped with the map phase
};

/// Per-map-task record used by the event-driven cluster simulator: how much
/// CPU the task burned locally and how many materialized bytes it produced
/// for each reducer.
struct MapTaskStats {
  u64 cpu_us = 0;  // map function + sort + codec
  std::vector<u64> segment_bytes;
};

struct ReduceTaskStats {
  u64 cpu_us = 0;  // decompress + group/split + reduce
  u64 shuffled_bytes = 0;
  u64 merge_materialized_bytes = 0;
  u64 output_bytes = 0;
  /// Streaming-merge decoded-bytes high-water mark: bounded by
  /// O(segments x block size) instead of total shuffled bytes.
  u64 merge_resident_peak_bytes = 0;
};

struct JobResult {
  /// Final output, per reducer, in reduce-emit order (step 7's HDFS write).
  std::vector<std::vector<KeyValue>> outputs;
  Counters counters;
  PhaseTimings timings;
  std::vector<MapTaskStats> map_tasks;
  std::vector<ReduceTaskStats> reduce_tasks;
  /// Structured observability snapshot: always carries the counter map; with
  /// JobConfig::collect_histograms it also carries per-stage latency/size
  /// histograms folded from the job's spans. Serialized by jobReportJson().
  obs::JobTelemetry telemetry;
};

/// Thrown by runJob when JobContext::cancelled flipped true before the job
/// finished (and by JobService::takeResult for a cancelled job).
struct JobCancelledError : std::runtime_error {
  JobCancelledError() : std::runtime_error("job cancelled") {}
};

/// Execution context a hosting service (src/service/) threads through runJob
/// so concurrent jobs share infrastructure instead of each building their
/// own. All fields optional; a default JobContext (or the 3-arg overload)
/// reproduces the standalone single-job behavior exactly.
struct JobContext {
  /// Shared per-block codec pool. nullptr = the job owns a private pool
  /// sized by JobConfig::codec_threads (the standalone behavior).
  ThreadPool* codec_pool = nullptr;
  /// Nonzero tag routes this job's spans and metric events to the recorder/
  /// stream bound to the tag (io/task_tag.h + bindJobTrace/bindJobMetrics)
  /// instead of the process-global slots, so concurrent jobs' telemetry
  /// stays separated.
  u64 job_tag = 0;
  /// Cooperative cancellation: polled at task boundaries; when it flips true
  /// the job stops scheduling work and runJob throws JobCancelledError.
  /// (The service additionally aborts the live ShuffleServer to unblock
  /// fetchers immediately.)
  const std::atomic<bool>* cancelled = nullptr;
  /// Called with the job's live ShuffleServer right after construction /
  /// right before destruction — the service seeds the overflow directory and
  /// pending-bytes limit here, and the memory governor attaches to adjust
  /// the limit while the job runs.
  std::function<void(ShuffleServer&)> attach_shuffle;
  std::function<void(ShuffleServer&)> detach_shuffle;
};

/// One map task's materialized result: the per-reducer segments plus the
/// stats and counter deltas the caller folds into its job-level aggregates.
/// The building block both the in-process runtime and the multi-process
/// worker (src/service/worker.h) execute tasks through — re-executing a task
/// from the same MapTask closure reproduces these bytes exactly, which is
/// what makes worker-death recovery bit-identical.
struct MapTaskExecution {
  MapOutput output;
  MapTaskStats stats;
  Counters counters;
};

/// Runs one map task with the configured retry budget (a failed attempt is
/// discarded wholesale and re-executed). Throws the last attempt's error
/// after config.max_task_attempts.
MapTaskExecution executeMapTask(const JobConfig& config, const Codec* codec,
                                ThreadPool* codecPool, const MapTask& task,
                                std::size_t taskIndex);

/// One reduce task's result. stats carries cpu/merge/output byte fields;
/// shuffled_bytes stays 0 — the transport that delivered the segments
/// accounts for it.
struct ReduceTaskExecution {
  std::vector<KeyValue> output;
  ReduceTaskStats stats;
  Counters counters;
};

/// Merges `segments` (slotted by map index) and runs the grouper + reduce
/// function with the configured retry budgets. Corrupt-data (FormatError)
/// attempts get the larger of task and shuffle retry budgets; per-attempt
/// corruption detections are recorded into *retryCounters when provided (so
/// they survive even if the task ultimately fails). Throws
/// RetryExhaustedError (site block.decode) or the last attempt's error.
ReduceTaskExecution executeReduceTask(const JobConfig& config, const Codec* codec,
                                      ThreadPool* codecPool, const ReduceFn& reduce,
                                      const std::vector<Bytes>& segments, int reducer,
                                      Counters* retryCounters = nullptr);

/// Threads in a codec pool configured with `configured` threads
/// (JobConfig::codec_threads, ServiceConfig::codec_threads): that many, or
/// the hardware concurrency when it is 0.
int codecPoolThreads(int configured);

/// First-error collection for pool tasks, which must not throw.
class ErrorSlot {
 public:
  /// Records the in-flight exception (call from a catch block).
  void record() {
    MutexLock lock(mutex_);
    if (!first_) first_ = std::current_exception();
  }
  void record(std::exception_ptr e) {
    MutexLock lock(mutex_);
    if (!first_) first_ = std::move(e);
  }
  bool any() const {
    MutexLock lock(mutex_);
    return first_ != nullptr;
  }
  void rethrowIfSet() {
    std::exception_ptr e;
    {
      MutexLock lock(mutex_);
      e = first_;
    }
    if (e) std::rethrow_exception(e);
  }

 private:
  mutable Mutex mutex_{lock_rank::kErrorSlot};
  std::exception_ptr first_ GUARDED_BY(mutex_);
};

/// The reduce side of Fig. 1 for one reducer (steps 4-7), shared by runJob
/// and the distributed coordinator: block-fetches the reducer's segment from
/// each of `numMaps` maps as `server` receives it (under
/// config.shuffle_retry, which also decode-scans and re-fetches them when
/// enabled; overflowed segments read back from disk after the shuffle
/// window), then runs executeReduceTask
/// over them slotted by map index and folds its stats, counters and output
/// into `result`. Writes to result.outputs hold `outputsMutex`. A cancel
/// request in `ctx` (may be nullptr) skips the reduce. Never throws: errors,
/// including a shuffle aborted by a failed map, land in `errors`.
void fetchAndReduce(const JobConfig& config, const Codec* codec, ThreadPool* codecPool,
                    const ReduceFn& reduce, ShuffleServer& server, std::size_t numMaps,
                    int reducer, const JobContext* ctx, JobResult& result, Mutex& outputsMutex,
                    ErrorSlot& errors);

/// End-of-job fold shared by runJob and the distributed coordinator: phase
/// timings from the job's start, last-map-end and end clock readings plus
/// the server's first-publish..last-fetch window, the overflow counter, and
/// REDUCE_MERGE_RESIDENT_PEAK_BYTES as the max over reduce tasks instead of
/// the sum the per-task counters accumulated (see counters.h).
void foldJobEnd(const ShuffleServer& server, u64 jobStartUs, u64 mapEndUs, u64 jobEndUs,
                JobResult& result);

/// Runs a complete MapReduce job. Thread-safe hooks required: router and
/// combiner run concurrently across tasks.
JobResult runJob(const JobConfig& config, const std::vector<MapTask>& mapTasks,
                 const ReduceFn& reduce);

/// Service entry point: same job, executed under a JobContext (shared codec
/// pool, task-tag telemetry routing, cooperative cancel, governor-managed
/// shuffle backpressure). `ctx` may be nullptr.
JobResult runJob(const JobConfig& config, const std::vector<MapTask>& mapTasks,
                 const ReduceFn& reduce, const JobContext* ctx);

}  // namespace scishuffle::hadoop
