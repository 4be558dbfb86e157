// Job configuration: the knobs the paper's experiments turn.
#pragma once

#include <filesystem>
#include <memory>
#include <string>

#include "hadoop/retry.h"
#include "hadoop/types.h"

namespace scishuffle::testing {
class FaultInjector;
}

namespace scishuffle::hadoop {

struct JobConfig {
  /// Number of reduce tasks ("5 reducers" in §III-E / §IV-D).
  int num_reducers = 1;

  /// Concurrent map tasks ("10 map slots").
  int map_slots = 2;

  /// Concurrent reduce tasks.
  int reduce_slots = 2;

  /// Intermediate (map output) codec name from the CodecRegistry: "null",
  /// "gzipish", "bzip2ish", "transform+gzipish", "transform+bzip2ish".
  std::string intermediate_codec = "null";

  /// Raw bytes per block in the block-framed segment container.
  std::size_t shuffle_block_bytes = 256u << 10;

  /// Threads in the shared codec pool used for per-block compression and
  /// reduce-side decode-ahead; 0 = hardware concurrency.
  int codec_threads = 0;

  /// Map-side sort buffer: a spill is triggered when the buffered arena
  /// bytes plus 16 B of index per record reach this, so it bounds map-side
  /// memory even for zero-length records.
  std::size_t spill_buffer_bytes = 16u << 20;

  /// Maximum segments merged per pass on the reduce side; more segments
  /// cause extra on-disk merge passes (step 5 of the paper's data flow).
  int merge_factor = 10;

  /// When set, the runtime records spans for the whole Fig. 1 data path
  /// (map tasks, spills, per-block codec work, segment publish/fetch, merge
  /// passes, reduce tasks) and writes a Chrome trace_event JSON file here at
  /// job end — loadable in chrome://tracing or ui.perfetto.dev. See
  /// docs/OBSERVABILITY.md for the span taxonomy.
  std::filesystem::path trace_path;

  /// Collect per-stage latency/size histograms into JobResult::telemetry
  /// (p50/p95/p99 summaries in jobReport() and jobReportJson()). Implies
  /// span recording for the duration of the job even when trace_path is
  /// empty; leave off for benchmark baselines that must not pay tracing
  /// overhead.
  bool collect_histograms = false;

  /// Interval of the background telemetry sampler (src/obs/sampler.h): every
  /// sample_interval_ms it snapshots the process gauge registry (RSS, shuffle
  /// backlog, thread-pool depth, stage-resident bytes) into the trace as
  /// "ph":"C" counter events, the metrics stream, and max/mean rollups in
  /// JobResult::telemetry. 0 (default) = no sampler thread at all, so an
  /// untouched config pays nothing.
  u64 sample_interval_ms = 0;

  /// When set, stream scishuffle.metrics.v1 JSONL (sampler gauge snapshots
  /// plus structured retry/corruption/backpressure events) to this file for
  /// the duration of the job; summarize it with `scishuffle_cli stat`. See
  /// docs/OBSERVABILITY.md for the line grammar.
  std::filesystem::path metrics_path;

  /// Attempts per task before the job fails (Hadoop's
  /// mapreduce.map/reduce.maxattempts; its fault tolerance is the paper's
  /// stated reason for wanting HPC codes on Hadoop at all). Each retry
  /// re-executes the task from scratch with fresh output state.
  int max_task_attempts = 1;

  /// Retry/backoff for the shuffle data path: segment fetch, segment
  /// verification, and publish. When enabled, a dropped fetch (IoError) or a
  /// corrupt segment (FormatError / CRC mismatch) is re-attempted with
  /// exponential backoff before the job fails; enabling it also makes the
  /// ShuffleServer retain pristine copies of published segments so a corrupt
  /// fetch can be re-fetched (Hadoop's reducer re-fetch of map output), and
  /// decode-scans every fetched segment before the merge (one extra decode
  /// pass per segment), so in-transit corruption is healed at fetch time
  /// instead of surfacing mid-reduce.
  RetryPolicy shuffle_retry;

  /// Deterministic fault injection for tests (see docs/FAULTS.md); not owned.
  /// nullptr = no faults.
  testing::FaultInjector* fault_injector = nullptr;

  /// Routing hook; default hash partitioning. SciHadoop installs a
  /// grid-aware router that splits aggregate keys at partition boundaries.
  RouteFn router = hashRouter();

  /// Optional combiner, applied to each sorted spill (and to the final merge
  /// when a map task spilled more than once).
  ReduceFn combiner;

  /// Reduce-side grouping strategy; default groups byte-equal keys.
  std::shared_ptr<ReduceGrouper> grouper = std::make_shared<DefaultGrouper>();
};

}  // namespace scishuffle::hadoop
