// The paper's flagship workload (§IV-C): a sliding-window median over a grid
// of integers, built in both configurations the cluster experiments compare:
//   * simple per-point keys (SciHadoop baseline; optionally with an
//     intermediate codec — §III-E), and
//   * aggregate keys via the Aggregator/AggregateGrouper machinery (§IV-D).
//
// Both produce identical logical results; tests verify this cell-for-cell
// against a serial oracle.
#pragma once

#include <map>

#include "scikey/input_planner.h"
#include "scikey/query_assembly.h"

namespace scishuffle::scikey {

struct SlidingQueryConfig {
  /// Window half-width: radius 1 = the paper's 3x3 rectangle.
  int window_radius = 1;

  /// Input splits: the domain is sliced along dimension 0, one per mapper.
  int num_mappers = 4;

  CellOp op = CellOp::kMedian;

  sfc::CurveKind curve = sfc::CurveKind::kZOrder;

  /// Aggregation buffer flush threshold (§IV-A memory bound).
  std::size_t flush_threshold_bytes = 8u << 20;

  /// §IV-C alignment experiment knob (1 = off).
  u64 alignment = 1;

  /// §IV-B extension: re-aggregate contiguous reduce outputs to offset the
  /// key-count increase caused by key splitting.
  bool reaggregate_output = false;

  /// How the input domain is carved into mapper splits (slab vs compact).
  SplitStrategy split_strategy = SplitStrategy::kSlabs;

  /// Run a combiner for algebraic cell ops. SciHadoop's distinction applies:
  /// sum is algebraic and combines safely; median is holistic and cannot —
  /// requesting a combiner with kMedian is a configuration error.
  bool use_combiner = false;
};

/// Simple-key configuration. `base` supplies cluster-ish knobs (reducers,
/// slots, codec); the builder installs the grid-aware router and key order.
PreparedJob buildSimpleSlidingJob(const grid::Variable& input, const SlidingQueryConfig& config,
                                  hadoop::JobConfig base);

/// Aggregate-key configuration (router splits at partition boundaries,
/// grouper splits overlaps, reduce runs cellwise).
PreparedJob buildAggregateSlidingJob(const grid::Variable& input, const SlidingQueryConfig& config,
                                     hadoop::JobConfig base);

/// Multi-variable variant: one job runs the sliding query over several int32
/// variables of a dataset at once. Keys carry the variable index, so the
/// aggregation machinery keeps variables apart end-to-end (the paper's §III
/// notes multiple variables complicate byte-stride choices; aggregate keys
/// handle them for free). Variables must share rank but may differ in shape;
/// the curve space covers the union of their output domains.
PreparedJob buildAggregateMultiVariableSlidingJob(const grid::Dataset& dataset,
                                                  const std::vector<std::string>& variables,
                                                  const SlidingQueryConfig& config,
                                                  hadoop::JobConfig base);

/// Serial oracle: coordinate -> reduced value over the full output domain.
std::map<grid::Coord, i32> slidingOracle(const grid::Variable& input,
                                         const SlidingQueryConfig& config);

/// (variable index, coordinate) -> value, for multi-variable jobs.
std::map<std::pair<int, grid::Coord>, i32> flattenMultiVariableOutputs(
    const hadoop::JobResult& result, const CurveSpace& space);

/// Flattens job output (either configuration) into coordinate -> value.
std::map<grid::Coord, i32> flattenSimpleOutputs(const hadoop::JobResult& result, int rank);
std::map<grid::Coord, i32> flattenAggregateOutputs(const hadoop::JobResult& result,
                                                   const CurveSpace& space);

}  // namespace scishuffle::scikey
