// Quickstart: run one MapReduce job over a small grid twice — with plain
// per-point keys and with SciHadoop-style aggregate keys — and watch the
// "Map output materialized bytes" counter shrink while the results stay
// identical.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "grid/dataset.h"
#include "hadoop/runtime.h"
#include "scikey/sliding_query.h"

using namespace scishuffle;

int main() {
  // 1. A "scientific dataset": one int32 variable on a 64x64 grid.
  grid::Variable pressure("pressure", grid::DataType::kInt32, grid::Shape({64, 64}));
  grid::gen::fillRandomInt(pressure, /*seed=*/7, /*limit=*/1000);

  // 2. The query: median over a sliding 3x3 window (the paper's workload).
  scikey::SlidingQueryConfig query;
  query.num_mappers = 4;

  // 3. Engine knobs, Hadoop-style.
  hadoop::JobConfig cluster;
  cluster.num_reducers = 3;
  cluster.map_slots = 4;

  // 4. Run it both ways.
  auto simple = scikey::buildSimpleSlidingJob(pressure, query, cluster);
  const auto simpleResult = hadoop::runJob(simple.job, simple.map_tasks, simple.reduce);

  auto aggregate = scikey::buildAggregateSlidingJob(pressure, query, cluster);
  const auto aggResult = hadoop::runJob(aggregate.job, aggregate.map_tasks, aggregate.reduce);

  // 5. Same answer, much less intermediate data.
  const auto simpleCells = scikey::flattenSimpleOutputs(simpleResult, 2);
  const auto aggCells = scikey::flattenAggregateOutputs(aggResult, *aggregate.space);
  std::cout << "outputs identical: " << (simpleCells == aggCells ? "yes" : "NO") << "\n";
  std::cout << "cells computed:    " << aggCells.size() << "\n\n";

  const u64 simpleBytes =
      simpleResult.counters.get(hadoop::counter::kMapOutputMaterializedBytes);
  const u64 aggBytes = aggResult.counters.get(hadoop::counter::kMapOutputMaterializedBytes);
  std::cout << "map output materialized bytes\n";
  std::cout << "  simple keys:    " << simpleBytes << "\n";
  std::cout << "  aggregate keys: " << aggBytes << "  ("
            << static_cast<int>(100.0 - 100.0 * static_cast<double>(aggBytes) /
                                            static_cast<double>(simpleBytes))
            << "% smaller)\n\n";

  std::cout << "aggregate-key machinery at work:\n";
  std::cout << "  routing splits (partition boundaries): "
            << aggregate.routing_counters->get(hadoop::counter::kKeySplitsRouting) << "\n";
  std::cout << "  overlap splits (reducer merge):        "
            << aggResult.counters.get(hadoop::counter::kKeySplitsOverlap) << "\n";
  std::cout << "  reduce groups:                         "
            << aggResult.counters.get(hadoop::counter::kReduceInputGroups) << "\n";
  return simpleCells == aggCells ? 0 : 1;
}
