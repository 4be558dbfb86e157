#include "scikey/slab_query.h"

#include <algorithm>

namespace scishuffle::scikey {

namespace {

/// Invokes f(projected cell, value) for every cell of a split: the map side
/// of the query, and its oracle. The projection is one buffer rewritten per
/// call: f copies what it keeps.
template <typename F>
void forEachProjection(const grid::Variable& input, const grid::Box& split,
                       const std::vector<int>& kept, F&& f) {
  grid::Coord target(kept.size());
  split.forEachCell([&](const grid::Coord& c) {
    for (std::size_t i = 0; i < kept.size(); ++i) target[i] = c[static_cast<std::size_t>(kept[i])];
    f(static_cast<const grid::Coord&>(target), input.int32At(c));
  });
}

grid::Box projectedDomain(const grid::Variable& input, const std::vector<int>& kept) {
  std::vector<i64> size;
  for (const int d : kept) size.push_back(input.shape().dim(d));
  return grid::Box(grid::Coord(kept.size(), 0), std::move(size));
}

/// Checks the reduced dimensions and returns the kept ones.
std::vector<int> validatedKeptDims(const grid::Variable& input, const SlabQueryConfig& config) {
  check(!config.reduced_dims.empty(), "must reduce at least one dimension");
  check(static_cast<int>(config.reduced_dims.size()) < input.shape().rank(),
        "cannot reduce every dimension");
  for (const int d : config.reduced_dims) {
    check(d >= 0 && d < input.shape().rank(), "reduced dimension out of range");
  }
  return keptDims(input.shape().rank(), config.reduced_dims);
}

PreparedJob buildSlabJob(KeyMode mode, const grid::Variable& input, const SlabQueryConfig& config,
                         hadoop::JobConfig base) {
  const std::vector<int> kept = validatedKeptDims(input, config);
  QueryKeys keys;
  keys.mode = mode;
  keys.space = std::make_shared<CurveSpace>(config.curve, projectedDomain(input, kept));
  keys.aggregation = {kCellValueSize, config.flush_threshold_bytes};
  std::vector<hadoop::MapTask> tasks;
  for (const grid::Box& split :
       planInputSplits(inputDomainOf(input), config.num_mappers, config.split_strategy)) {
    tasks.push_back(cellMapTask(keys, 0, [&input, split, kept](auto&& f) {
      forEachProjection(input, split, kept, f);
    }));
  }
  return assembleQuery(keys, std::move(tasks), {config.op, config.use_combiner},
                       std::move(base));
}

}  // namespace

std::vector<int> keptDims(int rank, const std::vector<int>& reducedDims) {
  std::vector<int> kept;
  for (int d = 0; d < rank; ++d) {
    if (std::find(reducedDims.begin(), reducedDims.end(), d) == reducedDims.end()) {
      kept.push_back(d);
    }
  }
  return kept;
}

PreparedJob buildSimpleSlabJob(const grid::Variable& input, const SlabQueryConfig& config,
                               hadoop::JobConfig base) {
  return buildSlabJob(KeyMode::kSimple, input, config, std::move(base));
}

PreparedJob buildAggregateSlabJob(const grid::Variable& input, const SlabQueryConfig& config,
                                  hadoop::JobConfig base) {
  return buildSlabJob(KeyMode::kAggregate, input, config, std::move(base));
}

std::map<grid::Coord, i32> slabOracle(const grid::Variable& input, const SlabQueryConfig& config) {
  const std::vector<int> kept = validatedKeptDims(input, config);
  return cellOracle(config.op, [&](auto&& f) {
    forEachProjection(input, inputDomainOf(input), kept, f);
  });
}

}  // namespace scishuffle::scikey
