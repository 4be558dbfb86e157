// The layer pass: one job of a workload broken into calls to each layer's
// public functions, each call timed and recorded as a span by the benchmark
// itself. Nothing inside the program is instrumented for it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "io/thread_pool.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

struct LayerPass {
  /// Per-layer metric name (as listed in BENCHMARK.json) -> value.
  std::map<std::string, double> metrics;
  /// Consistency checks that failed: a block that did not round-trip, a
  /// reduce output that does not match the reference.
  std::vector<std::string> failures;
  /// Summed materialized segment bytes of every executeMapTask call; the
  /// caller compares it with the job's MAP_OUTPUT_MATERIALIZED_BYTES.
  u64 segment_bytes = 0;
  /// Serial seconds spent in executeMapTask (workload codec) plus
  /// executeReduceTask: the pass's account of one job's work.
  double layer_sum_s = 0;
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a --trace 1 run reports (BENCHMARK.json's
/// per_layer list), in report order. The pass fills all but the shuffle
/// timings and obs overheads, which come from whole jobs.
const std::vector<LayerMetric>& layerMetrics();

/// Runs the pass once. `codecPool` serves executeMapTask/executeReduceTask
/// as the job's own codec pool would; spans go to `trace`.
LayerPass runLayerPass(const Workload& workload, const Reference& reference,
                       scishuffle::ThreadPool& codecPool, scishuffle::obs::TraceRecorder& trace);

}  // namespace perfbench
