#include "scikey/sliding_query.h"

#include <algorithm>

namespace scishuffle::scikey {

namespace {

/// Invokes f(targetCoord, inputValue) for every (window target, input cell)
/// pair of a split: the map side of the query, and its oracle. The target is
/// one buffer rewritten per call: f copies what it keeps.
template <typename F>
void forEachWindowEmission(const grid::Variable& input, const grid::Box& split, int radius,
                           F&& f) {
  const auto rank = static_cast<std::size_t>(split.rank());
  const grid::Box window(grid::Coord(rank, -radius), std::vector<i64>(rank, 2 * radius + 1));
  grid::Coord target(rank);
  split.forEachCell([&](const grid::Coord& c) {
    const i32 v = input.int32At(c);
    window.forEachCell([&](const grid::Coord& offset) {
      for (std::size_t d = 0; d < rank; ++d) target[d] = c[d] + offset[d];
      f(static_cast<const grid::Coord&>(target), v);
    });
  });
}

/// The sliding query over (variable index, variable) inputs of one rank. The
/// curve space covers the union of their output domains: all start at the
/// origin, so the union is the componentwise max extent grown by the radius.
PreparedJob buildSlidingJob(KeyMode mode,
                            const std::vector<std::pair<i32, const grid::Variable*>>& inputs,
                            const SlidingQueryConfig& config, hadoop::JobConfig base) {
  check(!inputs.empty(), "need at least one variable");
  const int radius = config.window_radius;
  const auto rank = static_cast<std::size_t>(inputs.front().second->shape().rank());
  grid::Coord low(rank, -radius);
  grid::Coord high(rank, 0);
  for (const auto& [var, input] : inputs) {
    check(input->shape().rank() == static_cast<int>(rank), "variables must share rank");
    check(input->type() == grid::DataType::kInt32, "sliding queries require int32 variables");
    for (std::size_t d = 0; d < rank; ++d) {
      high[d] = std::max(high[d], input->shape().dim(static_cast<int>(d)) + radius);
    }
  }

  QueryKeys keys;
  keys.mode = mode;
  keys.space = std::make_shared<CurveSpace>(config.curve, grid::Box::fromExtents(low, high));
  keys.aggregation = {kCellValueSize, config.flush_threshold_bytes, config.alignment};
  // One map-task set per variable: SciHadoop assigns splits per variable
  // because shapes (and therefore chunkings) differ.
  std::vector<hadoop::MapTask> tasks;
  for (const auto& [var, input] : inputs) {
    for (const grid::Box& split :
         planInputSplits(inputDomainOf(*input), config.num_mappers, config.split_strategy)) {
      tasks.push_back(cellMapTask(keys, var, [input, split, radius](auto&& f) {
        forEachWindowEmission(*input, split, radius, f);
      }));
    }
  }
  return assembleQuery(keys, std::move(tasks),
                       {config.op, config.use_combiner, config.reaggregate_output},
                       std::move(base));
}

/// Calls f(var, cell, value) for every cell of every aggregate output record.
template <typename F>
void forEachAggregateOutputCell(const hadoop::JobResult& result, const CurveSpace& space, F&& f) {
  for (const auto& reducerOutput : result.outputs) {
    for (const auto& kv : reducerOutput) {
      const AggregateKey key = deserializeAggregateKey(kv.key);
      checkFormat(kv.value.size() == key.count * kCellValueSize, "aggregate output blob mismatch");
      for (u64 i = 0; i < key.count; ++i) {
        f(key.var, space.decode(key.start + i),
          decodeCellValue(ByteSpan(kv.value).subspan(static_cast<std::size_t>(i) * kCellValueSize,
                                                     kCellValueSize)));
      }
    }
  }
}

}  // namespace

PreparedJob buildSimpleSlidingJob(const grid::Variable& input, const SlidingQueryConfig& config,
                                  hadoop::JobConfig base) {
  return buildSlidingJob(KeyMode::kSimple, {{0, &input}}, config, std::move(base));
}

PreparedJob buildAggregateSlidingJob(const grid::Variable& input,
                                     const SlidingQueryConfig& config, hadoop::JobConfig base) {
  return buildSlidingJob(KeyMode::kAggregate, {{0, &input}}, config, std::move(base));
}

PreparedJob buildAggregateMultiVariableSlidingJob(const grid::Dataset& dataset,
                                                  const std::vector<std::string>& variables,
                                                  const SlidingQueryConfig& config,
                                                  hadoop::JobConfig base) {
  std::vector<std::pair<i32, const grid::Variable*>> inputs;
  for (const auto& name : variables) {
    inputs.emplace_back(dataset.variableIndex(name), &dataset.variable(name));
  }
  return buildSlidingJob(KeyMode::kAggregate, inputs, config, std::move(base));
}

std::map<grid::Coord, i32> slidingOracle(const grid::Variable& input,
                                         const SlidingQueryConfig& config) {
  return cellOracle(config.op, [&](auto&& f) {
    forEachWindowEmission(input, inputDomainOf(input), config.window_radius, f);
  });
}

std::map<std::pair<int, grid::Coord>, i32> flattenMultiVariableOutputs(
    const hadoop::JobResult& result, const CurveSpace& space) {
  std::map<std::pair<int, grid::Coord>, i32> out;
  forEachAggregateOutputCell(result, space, [&](i32 var, grid::Coord coord, i32 v) {
    check(out.emplace(std::make_pair(static_cast<int>(var), std::move(coord)), v).second,
          "duplicate output cell");
  });
  return out;
}

std::map<grid::Coord, i32> flattenSimpleOutputs(const hadoop::JobResult& result, int rank) {
  std::map<grid::Coord, i32> out;
  for (const auto& reducerOutput : result.outputs) {
    for (const auto& kv : reducerOutput) {
      const SimpleKey key = deserializeSimpleKey(kv.key, VariableTag::kIndex, rank);
      check(out.emplace(key.coords, decodeCellValue(kv.value)).second, "duplicate output cell");
    }
  }
  return out;
}

std::map<grid::Coord, i32> flattenAggregateOutputs(const hadoop::JobResult& result,
                                                   const CurveSpace& space) {
  std::map<grid::Coord, i32> out;
  forEachAggregateOutputCell(result, space, [&](i32, grid::Coord coord, i32 v) {
    check(out.emplace(std::move(coord), v).second, "duplicate output cell");
  });
  return out;
}

}  // namespace scishuffle::scikey
