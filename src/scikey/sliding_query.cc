#include "scikey/sliding_query.h"

#include <algorithm>

#include "io/primitives.h"
#include "io/streams.h"
#include "scikey/aggregate_grouper.h"
#include "scikey/cellwise.h"
#include "scikey/simple_key.h"

namespace scishuffle::scikey {

namespace {

constexpr std::size_t kValueSize = 4;

grid::Box inputDomainOf(const grid::Variable& input) {
  return grid::Box(grid::Coord(static_cast<std::size_t>(input.shape().rank()), 0),
                   input.shape().dims());
}

grid::Box outputDomainOf(const grid::Variable& input, int radius) {
  const grid::Box in = inputDomainOf(input);
  grid::Coord low(in.corner());
  grid::Coord high(in.corner());
  for (int d = 0; d < in.rank(); ++d) {
    low[static_cast<std::size_t>(d)] -= radius;
    high[static_cast<std::size_t>(d)] = in.high(d) + radius;
  }
  return grid::Box::fromExtents(low, high);
}

/// Invokes f(targetCoord, inputValue) for every (window target, input cell)
/// pair of a split — the map function shared by both configurations. The
/// target is one buffer rewritten per call: f copies what it keeps.
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

}  // namespace

PreparedJob buildSimpleSlidingJob(const grid::Variable& input, const SlidingQueryConfig& config,
                                  hadoop::JobConfig base) {
  PreparedJob prepared;
  prepared.routing_counters = std::make_shared<hadoop::Counters>();
  prepared.space = std::make_shared<CurveSpace>(config.curve,
                                                outputDomainOf(input, config.window_radius));
  const std::size_t keySize = 4 + 4 * static_cast<std::size_t>(input.shape().rank());

  for (const grid::Box& split :
       planInputSplits(inputDomainOf(input), config.num_mappers, config.split_strategy)) {
    prepared.map_tasks.push_back(hadoop::MapTask{[&input, split, config, keySize](
                                                     const hadoop::EmitFn& emit) {
      forEachWindowEmission(input, split, config.window_radius,
                            [&](const grid::Coord& target, i32 v) {
                              // serializeSimpleKey's bytes, without a SimpleKey copy.
                              Bytes key;
                              key.reserve(keySize);
                              appendSortableI32(key, 0);
                              appendSimpleKeyCoords(key, target);
                              emit(std::move(key), encodeCellValue(v));
                            });
    }});
  }

  // Route each simple key by its cell's curve index, cut as the aggregate
  // configuration cuts it, so data lands on the same reducers
  // (apples-to-apples shuffle).
  base.router = simpleRangeRouter(prepared.space, CurveCuts(*prepared.space, base.num_reducers));

  const CellOp op = config.op;
  prepared.reduce = [op](const Bytes& key, std::vector<Bytes>& values,
                         const hadoop::EmitFn& emit) {
    std::vector<i32> decoded;
    decoded.reserve(values.size());
    for (const Bytes& v : values) decoded.push_back(decodeCellValue(v));
    emit(key, encodeCellValue(applyCellOp(op, decoded)));
  };
  if (config.use_combiner) {
    check(config.op == CellOp::kSum, "combiner requires an algebraic cell op (sum)");
    base.combiner = prepared.reduce;  // sum is associative: reduce == combine
  }

  prepared.job = std::move(base);
  return prepared;
}

PreparedJob buildAggregateSlidingJob(const grid::Variable& input,
                                     const SlidingQueryConfig& config, hadoop::JobConfig base) {
  PreparedJob prepared;
  prepared.routing_counters = std::make_shared<hadoop::Counters>();
  prepared.space = std::make_shared<CurveSpace>(config.curve,
                                                outputDomainOf(input, config.window_radius));
  const auto space = prepared.space;
  const auto routingCounters = prepared.routing_counters;

  AggregatorConfig aggConfig;
  aggConfig.value_size = kValueSize;
  aggConfig.flush_threshold_bytes = config.flush_threshold_bytes;
  aggConfig.alignment = config.alignment;

  for (const grid::Box& split :
       planInputSplits(inputDomainOf(input), config.num_mappers, config.split_strategy)) {
    prepared.map_tasks.push_back(
        hadoop::MapTask{[&input, split, config, aggConfig, space,
                         routingCounters](const hadoop::EmitFn& emit) {
          Aggregator aggregator(*space, aggConfig, emit, routingCounters.get());
          forEachWindowEmission(input, split, config.window_radius,
                                [&](const grid::Coord& target, i32 v) {
                                  aggregator.add(0, target, cellValueBytes(v));
                                });
          aggregator.flush();
        }});
  }

  base.router =
      aggregateRangeRouter(CurveCuts(*space, base.num_reducers), kValueSize, routingCounters.get());
  base.grouper = std::make_shared<AggregateGrouper>(kValueSize, config.reaggregate_output);
  prepared.reduce = cellwiseAggregateReduce(kValueSize, kValueSize, cellFnFor(config.op));
  if (config.use_combiner) {
    // The combiner sees byte-equal aggregate keys only (identical ranges =
    // duplicate layers within one map task); cellwise sum collapses them
    // into a single partial layer. Holistic ops cannot combine.
    check(config.op == CellOp::kSum, "combiner requires an algebraic cell op (sum)");
    base.combiner = cellwiseAggregateReduce(kValueSize, kValueSize, cellSumI32);
  }
  prepared.job = std::move(base);
  return prepared;
}

PreparedJob buildAggregateMultiVariableSlidingJob(const grid::Dataset& dataset,
                                                  const std::vector<std::string>& variables,
                                                  const SlidingQueryConfig& config,
                                                  hadoop::JobConfig base) {
  check(!variables.empty(), "need at least one variable");
  const int rank = dataset.variable(variables.front()).shape().rank();

  // Union of every variable's output domain (all start at the origin, so the
  // union is the componentwise max extent, expanded by the window radius).
  grid::Coord low(static_cast<std::size_t>(rank), -config.window_radius);
  grid::Coord high(static_cast<std::size_t>(rank), 0);
  for (const auto& name : variables) {
    const grid::Variable& v = dataset.variable(name);
    check(v.shape().rank() == rank, "variables must share rank");
    check(v.type() == grid::DataType::kInt32, "multi-variable jobs require int32 variables");
    for (int d = 0; d < rank; ++d) {
      high[static_cast<std::size_t>(d)] =
          std::max(high[static_cast<std::size_t>(d)], v.shape().dim(d) + config.window_radius);
    }
  }

  PreparedJob prepared;
  prepared.routing_counters = std::make_shared<hadoop::Counters>();
  prepared.space = std::make_shared<CurveSpace>(config.curve, grid::Box::fromExtents(low, high));
  const auto space = prepared.space;
  const auto routingCounters = prepared.routing_counters;

  AggregatorConfig aggConfig;
  aggConfig.value_size = kValueSize;
  aggConfig.flush_threshold_bytes = config.flush_threshold_bytes;
  aggConfig.alignment = config.alignment;

  // One map-task set per variable: SciHadoop assigns splits per variable
  // because shapes (and therefore chunkings) differ.
  for (const auto& name : variables) {
    const grid::Variable& input = dataset.variable(name);
    const i32 varIndex = dataset.variableIndex(name);
    for (const grid::Box& split :
         planInputSplits(inputDomainOf(input), config.num_mappers, config.split_strategy)) {
      prepared.map_tasks.push_back(hadoop::MapTask{
          [&input, varIndex, split, config, aggConfig, space,
           routingCounters](const hadoop::EmitFn& emit) {
            Aggregator aggregator(*space, aggConfig, emit, routingCounters.get());
            forEachWindowEmission(input, split, config.window_radius,
                                  [&](const grid::Coord& target, i32 v) {
                                    aggregator.add(varIndex, target, cellValueBytes(v));
                                  });
            aggregator.flush();
          }});
    }
  }

  base.router =
      aggregateRangeRouter(CurveCuts(*space, base.num_reducers), kValueSize, routingCounters.get());
  base.grouper = std::make_shared<AggregateGrouper>(kValueSize, config.reaggregate_output);
  prepared.reduce = cellwiseAggregateReduce(kValueSize, kValueSize, cellFnFor(config.op));
  prepared.job = std::move(base);
  return prepared;
}

std::map<std::pair<int, grid::Coord>, i32> flattenMultiVariableOutputs(
    const hadoop::JobResult& result, const CurveSpace& space) {
  std::map<std::pair<int, grid::Coord>, i32> out;
  for (const auto& reducerOutput : result.outputs) {
    for (const auto& kv : reducerOutput) {
      const AggregateKey key = deserializeAggregateKey(kv.key);
      checkFormat(kv.value.size() == key.count * kValueSize, "aggregate output blob mismatch");
      for (u64 i = 0; i < key.count; ++i) {
        const grid::Coord coord = space.decode(key.start + i);
        const i32 v = decodeCellValue(
            ByteSpan(kv.value).subspan(static_cast<std::size_t>(i) * kValueSize, kValueSize));
        check(out.emplace(std::make_pair(static_cast<int>(key.var), coord), v).second,
              "duplicate output cell");
      }
    }
  }
  return out;
}

std::map<grid::Coord, i32> slidingOracle(const grid::Variable& input,
                                         const SlidingQueryConfig& config) {
  std::map<grid::Coord, std::vector<i32>> gathered;
  for (const grid::Box& split :
       planInputSplits(inputDomainOf(input), 1, SplitStrategy::kSlabs)) {
    forEachWindowEmission(input, split, config.window_radius,
                          [&](const grid::Coord& target, i32 v) { gathered[target].push_back(v); });
  }
  std::map<grid::Coord, i32> out;
  for (auto& [coord, values] : gathered) out[coord] = applyCellOp(config.op, values);
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
  for (const auto& reducerOutput : result.outputs) {
    for (const auto& kv : reducerOutput) {
      const AggregateKey key = deserializeAggregateKey(kv.key);
      checkFormat(kv.value.size() == key.count * kValueSize, "aggregate output blob mismatch");
      for (u64 i = 0; i < key.count; ++i) {
        const grid::Coord coord = space.decode(key.start + i);
        const i32 v = decodeCellValue(ByteSpan(kv.value).subspan(
            static_cast<std::size_t>(i) * kValueSize, kValueSize));
        check(out.emplace(coord, v).second, "duplicate output cell");
      }
    }
  }
  return out;
}

}  // namespace scishuffle::scikey
