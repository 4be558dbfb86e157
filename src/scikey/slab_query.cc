#include "scikey/slab_query.h"

#include <algorithm>

#include "scikey/aggregate_grouper.h"
#include "scikey/simple_key.h"

namespace scishuffle::scikey {

namespace {

constexpr std::size_t kValueSize = 4;

grid::Box inputDomainOf(const grid::Variable& input) {
  return grid::Box(grid::Coord(static_cast<std::size_t>(input.shape().rank()), 0),
                   input.shape().dims());
}

grid::Coord project(const grid::Coord& c, const std::vector<int>& kept) {
  grid::Coord out(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    out[i] = c[static_cast<std::size_t>(kept[i])];
  }
  return out;
}

grid::Box projectedDomain(const grid::Variable& input, const std::vector<int>& kept) {
  grid::Coord corner(kept.size(), 0);
  std::vector<i64> size(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    size[i] = input.shape().dim(kept[i]);
  }
  return grid::Box(std::move(corner), std::move(size));
}

void validate(const grid::Variable& input, const SlabQueryConfig& config) {
  check(!config.reduced_dims.empty(), "must reduce at least one dimension");
  check(static_cast<int>(config.reduced_dims.size()) < input.shape().rank(),
        "cannot reduce every dimension");
  for (const int d : config.reduced_dims) {
    check(d >= 0 && d < input.shape().rank(), "reduced dimension out of range");
  }
  if (config.use_combiner) {
    check(config.op == CellOp::kSum, "combiner requires an algebraic cell op (sum)");
  }
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
  validate(input, config);
  const auto kept = keptDims(input.shape().rank(), config.reduced_dims);

  PreparedJob prepared;
  prepared.routing_counters = std::make_shared<hadoop::Counters>();
  prepared.space = std::make_shared<CurveSpace>(config.curve, projectedDomain(input, kept));

  for (const grid::Box& split :
       planInputSplits(inputDomainOf(input), config.num_mappers, config.split_strategy)) {
    prepared.map_tasks.push_back(hadoop::MapTask{[&input, split, kept](const hadoop::EmitFn& emit) {
      split.forEachCell([&](const grid::Coord& c) {
        emit(serializeSimpleKey(SimpleKey{0, "", project(c, kept)}, VariableTag::kIndex),
             encodeCellValue(input.int32At(c)));
      });
    }});
  }

  base.router = simpleRangeRouter(prepared.space, CurveCuts(*prepared.space, base.num_reducers));

  const CellOp op = config.op;
  prepared.reduce = [op](const Bytes& key, std::vector<Bytes>& values,
                         const hadoop::EmitFn& emit) {
    std::vector<i32> decoded;
    decoded.reserve(values.size());
    for (const Bytes& v : values) decoded.push_back(decodeCellValue(v));
    emit(key, encodeCellValue(applyCellOp(op, decoded)));
  };
  if (config.use_combiner) base.combiner = prepared.reduce;

  prepared.job = std::move(base);
  return prepared;
}

PreparedJob buildAggregateSlabJob(const grid::Variable& input, const SlabQueryConfig& config,
                                  hadoop::JobConfig base) {
  validate(input, config);
  const auto kept = keptDims(input.shape().rank(), config.reduced_dims);

  PreparedJob prepared;
  prepared.routing_counters = std::make_shared<hadoop::Counters>();
  prepared.space = std::make_shared<CurveSpace>(config.curve, projectedDomain(input, kept));
  const auto space = prepared.space;
  const auto routingCounters = prepared.routing_counters;

  AggregatorConfig aggConfig;
  aggConfig.value_size = kValueSize;
  aggConfig.flush_threshold_bytes = config.flush_threshold_bytes;

  for (const grid::Box& split :
       planInputSplits(inputDomainOf(input), config.num_mappers, config.split_strategy)) {
    prepared.map_tasks.push_back(hadoop::MapTask{
        [&input, split, kept, aggConfig, space, routingCounters](const hadoop::EmitFn& emit) {
          Aggregator aggregator(*space, aggConfig, emit, routingCounters.get());
          split.forEachCell([&](const grid::Coord& c) {
            aggregator.add(0, project(c, kept), cellValueBytes(input.int32At(c)));
          });
          aggregator.flush();
        }});
  }

  base.router =
      aggregateRangeRouter(CurveCuts(*space, base.num_reducers), kValueSize, routingCounters.get());
  base.grouper = std::make_shared<AggregateGrouper>(kValueSize);
  prepared.reduce = cellwiseAggregateReduce(kValueSize, kValueSize, cellFnFor(config.op));
  if (config.use_combiner) {
    base.combiner = cellwiseAggregateReduce(kValueSize, kValueSize, cellSumI32);
  }
  prepared.job = std::move(base);
  return prepared;
}

std::map<grid::Coord, i32> slabOracle(const grid::Variable& input, const SlabQueryConfig& config) {
  validate(input, config);
  const auto kept = keptDims(input.shape().rank(), config.reduced_dims);
  std::map<grid::Coord, std::vector<i32>> gathered;
  inputDomainOf(input).forEachCell(
      [&](const grid::Coord& c) { gathered[project(c, kept)].push_back(input.int32At(c)); });
  std::map<grid::Coord, i32> out;
  for (auto& [coord, values] : gathered) out[coord] = applyCellOp(config.op, values);
  return out;
}

}  // namespace scishuffle::scikey
