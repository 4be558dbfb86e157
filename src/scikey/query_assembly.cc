#include "scikey/query_assembly.h"

#include "scikey/aggregate_grouper.h"

namespace scishuffle::scikey {

CellEmitter::CellEmitter(const QueryKeys& keys, const hadoop::EmitFn& emit)
    : emit_(&emit),
      simpleKeySize_(4 + 4 * static_cast<std::size_t>(keys.space->domain().rank())) {
  if (keys.mode == KeyMode::kAggregate) {
    aggregator_.emplace(*keys.space, keys.aggregation, emit, keys.counters.get());
  }
}

PreparedJob assembleQuery(const QueryKeys& keys, std::vector<hadoop::MapTask> tasks,
                          const CellReduceOptions& reduce, hadoop::JobConfig base) {
  if (reduce.use_combiner) {
    check(reduce.op == CellOp::kSum, "combiner requires an algebraic cell op (sum)");
  }
  PreparedJob prepared;
  prepared.map_tasks = std::move(tasks);
  prepared.routing_counters = keys.counters;
  prepared.space = keys.space;

  // Both modes cut the curve alike, so one input and one reducer count send
  // every cell to the same reducer under either key (apples-to-apples).
  CurveCuts cuts(*keys.space, base.num_reducers);
  if (keys.mode == KeyMode::kSimple) {
    base.router = simpleRangeRouter(keys.space, std::move(cuts));
    prepared.reduce = [op = reduce.op](const Bytes& key, std::vector<Bytes>& values,
                                       const hadoop::EmitFn& emit) {
      std::vector<i32> decoded;
      decoded.reserve(values.size());
      for (const Bytes& v : values) decoded.push_back(decodeCellValue(v));
      emit(key, encodeCellValue(applyCellOp(op, decoded)));
    };
  } else {
    base.router = aggregateRangeRouter(std::move(cuts), kCellValueSize, keys.counters.get());
    base.grouper = std::make_shared<AggregateGrouper>(kCellValueSize, reduce.reaggregate_output);
    prepared.reduce = cellwiseAggregateReduce(reduce.op);
  }
  // Sum is associative, so the reduce doubles as the combiner. Under
  // aggregate keys the combiner sees byte-equal keys only (the same range
  // emitted twice by one map task) and collapses their layers into one.
  if (reduce.use_combiner) base.combiner = prepared.reduce;
  prepared.job = std::move(base);
  return prepared;
}

hadoop::JobResult runPreparedJob(const PreparedJob& job) {
  const std::map<std::string, u64> before = job.routing_counters->snapshot();
  hadoop::JobResult result = hadoop::runJob(job.job, job.map_tasks, job.reduce);
  for (const auto& [name, value] : job.routing_counters->snapshot()) {
    const auto it = before.find(name);
    const u64 gained = value - (it == before.end() ? 0 : it->second);
    if (gained > 0) result.counters.add(name, gained);
  }
  result.telemetry.counters = result.counters.snapshot();
  return result;
}

grid::Box inputDomainOf(const grid::Variable& input) {
  return grid::Box(grid::Coord(static_cast<std::size_t>(input.shape().rank()), 0),
                   input.shape().dims());
}

}  // namespace scishuffle::scikey
