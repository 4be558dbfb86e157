// Job runtime: executes map tasks on map slots, shuffles materialized
// segments to reducers, merges, and drives the reduce-side grouper —
// the full data path of the paper's Fig. 1, steps 1-7.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
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
  u64 cpu_us = 0;  // the task thread's CPU + its codec blocks' CPU on pool threads
  std::vector<u64> segment_bytes;
};

struct ReduceTaskStats {
  u64 cpu_us = 0;  // as MapTaskStats::cpu_us: merge, group/split, reduce, codec
  u64 shuffled_bytes = 0;
  u64 merge_materialized_bytes = 0;
  u64 output_bytes = 0;
  /// Streaming-merge decoded-bytes high-water mark: bounded by
  /// O(segments x block size) instead of total shuffled bytes.
  u64 merge_resident_peak_bytes = 0;
  u64 input_records = 0;  // the task's REDUCE_INPUT_RECORDS
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

/// One reduce task's result. stats carries the cpu, input-record, merge and
/// output-byte fields; shuffled_bytes stays 0 — the transport that delivered
/// the segments accounts for it.
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
/// (JobConfig::codec_threads): that many, or
/// the hardware concurrency when it is 0.
int codecPoolThreads(int configured);

/// The codec JobConfig::intermediate_codec names, with the built-in and
/// transform codecs registered; nullptr for "null" (segments stay raw).
/// Throws std::out_of_range for an unknown name.
std::unique_ptr<Codec> intermediateCodec(const std::string& name);

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
/// enabled), then runs executeReduceTask over them slotted by map index and
/// folds its stats, counters and output into `result`. Writes to
/// result.outputs hold `outputsMutex`. Never throws: errors, including a
/// shuffle aborted by a failed map, land in `errors`.
void fetchAndReduce(const JobConfig& config, const Codec* codec, ThreadPool* codecPool,
                    const ReduceFn& reduce, ShuffleServer& server, std::size_t numMaps,
                    int reducer, JobResult& result, Mutex& outputsMutex, ErrorSlot& errors);

/// End-of-job fold shared by runJob and the distributed coordinator: phase
/// timings from the job's start, last-map-end and end clock readings plus
/// the server's first-publish..last-fetch window, and
/// REDUCE_MERGE_RESIDENT_PEAK_BYTES as the max over reduce tasks instead of
/// the sum the per-task counters accumulated (see counters.h).
void foldJobEnd(const ShuffleServer& server, u64 jobStartUs, u64 mapEndUs, u64 jobEndUs,
                JobResult& result);

/// Runs a complete MapReduce job. Thread-safe hooks required: router and
/// combiner run concurrently across tasks.
JobResult runJob(const JobConfig& config, const std::vector<MapTask>& mapTasks,
                 const ReduceFn& reduce);

}  // namespace scishuffle::hadoop
