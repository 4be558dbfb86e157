// The four benchmark workloads: each is an input grid generated from the
// seed, a ready-to-run hadoop job over it, and a reference its output is
// checked against. See README.md for why each workload exists.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "grid/dataset.h"
#include "hadoop/runtime.h"
#include "scikey/sliding_query.h"

namespace perfbench {

using scishuffle::u32;
using scishuffle::u64;

/// Thread counts and reducer count shared by every workload. Set explicitly
/// (never 0, which would mean hardware_concurrency) so busy job threads stay
/// within the core count.
struct RunShape {
  int map_slots = 2;
  int reduce_slots = 2;
  int codec_threads = 2;
  int num_reducers = 4;
};

enum class Check {
  kGridCells,         // each input cell comes back exactly once with its value
  kSlidingSimple,     // matches slidingOracle through flattenSimpleOutputs
  kSlidingAggregate,  // matches slidingOracle through flattenAggregateOutputs
};

struct Workload {
  std::string name;
  Check check = Check::kGridCells;
  /// The map closures reference the input, so it is owned here and a built
  /// Workload stays where buildWorkload put it.
  std::unique_ptr<scishuffle::grid::Variable> input;
  /// Map tasks, reduce function and job config; `routing_counters` collects
  /// aggregate-key splits made by the router, `space` decodes aggregate keys.
  scishuffle::scikey::PreparedJob job;
  scishuffle::scikey::SlidingQueryConfig query;
};

/// Generates the input from `seed` and wires the job for one of
/// walk_xform, grid_random_xform, median_simple_null, median_agg_null.
/// Throws std::invalid_argument for any other name.
std::unique_ptr<Workload> buildWorkload(const std::string& name, u32 seed, const RunShape& shape);

/// What a correct output must reduce to: for sliding workloads the cell
/// count and digest of slidingOracle (computed once); grid workloads check
/// against the input directly and need neither.
struct Reference {
  u64 cells = 0;
  u64 digest = 0;
};

Reference computeReference(const Workload& workload);

/// Empty when `result` is the correct output of `workload`, otherwise what
/// is wrong with it.
std::string verifyOutput(const Workload& workload, const Reference& reference,
                         const scishuffle::hadoop::JobResult& result);

}  // namespace perfbench
