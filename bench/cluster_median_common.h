// Shared setup for the two cluster experiments (E6 §III-E codec run,
// E8 §IV-D aggregation run): a sliding 3x3 median over a grid of integers on
// a simulated 5-node cluster with 5 reducers and 10 map slots, projected to
// the paper's dataset size by the event simulator.
#pragma once

#include <iostream>

#include "bench_util/bench_util.h"
#include "cluster/simulator.h"
#include "hadoop/runtime.h"
#include "scikey/sliding_query.h"

namespace scishuffle::bench {

/// The grid actually executed locally (360^2 keeps every bench run fast).
constexpr i64 kLocalSide = 360;

/// Paper run: intermediate data was 55.5 GB at 26 B/record and 9 emits/cell
/// => ~2.37e8 input cells. The scale factor projects local counters there.
constexpr double kPaperCells = 55.5e9 / (26.0 * 9.0);

inline double paperScale() {
  return kPaperCells / (static_cast<double>(kLocalSide) * static_cast<double>(kLocalSide));
}

inline cluster::ClusterSpec paperCluster() {
  cluster::ClusterSpec spec;
  spec.nodes = 5;
  spec.map_slots = 10;
  spec.reduce_slots = 5;
  return spec;
}

struct RunOutcome {
  u64 materialized = 0;
  cluster::SimOutcome simulated;  // the run projected onto paperCluster()
  hadoop::Counters counters;
};

inline RunOutcome runConfiguration(const grid::Variable& input, bool aggregate,
                                   const std::string& codec) {
  scikey::SlidingQueryConfig config;
  config.num_mappers = 10;

  hadoop::JobConfig base;
  base.num_reducers = 5;
  base.map_slots = 10;
  base.reduce_slots = 5;
  base.intermediate_codec = codec;

  scikey::PreparedJob job = aggregate ? buildAggregateSlidingJob(input, config, base)
                                      : buildSimpleSlidingJob(input, config, base);
  const auto result = hadoop::runJob(job.job, job.map_tasks, job.reduce);

  RunOutcome outcome;
  outcome.counters = result.counters;
  outcome.materialized = result.counters.get(hadoop::counter::kMapOutputMaterializedBytes);
  const cluster::ClusterSpec spec = paperCluster();
  outcome.simulated = cluster::EventSimulator(spec).run(
      cluster::simJobFromResult(result, spec, paperScale()));
  return outcome;
}

}  // namespace scishuffle::bench
