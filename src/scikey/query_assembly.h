// One assembly for both key configurations of a grid query. The paper runs
// its sliding median once with simple per-cell keys (§III-E) and once with
// aggregate keys (§IV-D); every query builder offers the same choice. A
// builder supplies only its output domain and its per-split walk, a callable
// that hands each (cell, value) of one input split to a sink. This file
// supplies the rest, for either key mode:
//   * cellMapTask turns a walk into a map task whose CellEmitter serializes
//     each cell as a simple key or feeds it to the task's Aggregator;
//   * assembleQuery installs the curve cuts, the router, the grouper, the
//     reduce and the combiner rule (sum is algebraic and may combine; median
//     is holistic and may not) that go with the mode.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "grid/dataset.h"
#include "hadoop/runtime.h"
#include "scikey/aggregator.h"
#include "scikey/cellwise.h"
#include "scikey/curve_space.h"
#include "scikey/simple_key.h"

namespace scishuffle::scikey {

enum class KeyMode { kSimple, kAggregate };

/// A ready-to-run job: tasks + reduce + engine config wired together.
/// `routing_counters` collects the router's key splits and the Aggregators'
/// flushes: both happen inside the engine's map tasks, outside the task
/// counters, and runPreparedJob folds them into the job's result.
struct PreparedJob {
  std::vector<hadoop::MapTask> map_tasks;
  hadoop::ReduceFn reduce;
  hadoop::JobConfig job;
  std::shared_ptr<hadoop::Counters> routing_counters;
  std::shared_ptr<CurveSpace> space;
};

/// What every map task of one query shares: the key mode, the curve space
/// over the output domain, how an aggregate-key task buffers, and the
/// counters its Aggregators and the router count into.
struct QueryKeys {
  KeyMode mode = KeyMode::kSimple;
  std::shared_ptr<CurveSpace> space;
  AggregatorConfig aggregation;
  std::shared_ptr<hadoop::Counters> counters = std::make_shared<hadoop::Counters>();
};

/// One map task's sink for (var, cell, value) triples in the keys' mode.
class CellEmitter {
 public:
  CellEmitter(const QueryKeys& keys, const hadoop::EmitFn& emit);

  void emit(i32 var, const grid::Coord& cell, i32 value) {
    if (aggregator_) {
      aggregator_->add(var, cell, cellValueBytes(value));
      return;
    }
    // serializeSimpleKey's bytes, without a SimpleKey copy.
    Bytes key;
    key.reserve(simpleKeySize_);
    appendSortableI32(key, var);
    appendSimpleKeyCoords(key, cell);
    (*emit_)(std::move(key), encodeCellValue(value));
  }

  /// Emits what the Aggregator still buffers; nothing for simple keys.
  void finish() {
    if (aggregator_) aggregator_->flush();
  }

 private:
  const hadoop::EmitFn* emit_;
  std::size_t simpleKeySize_;
  std::optional<Aggregator> aggregator_;
};

/// A map task that runs walk(f) and emits every f(cell, value) as variable
/// `var`. The walk is inlined into the task, so each cell costs no indirect
/// call beyond the engine's EmitFn.
template <typename Walk>
hadoop::MapTask cellMapTask(const QueryKeys& keys, i32 var, Walk walk) {
  return hadoop::MapTask{[keys, var, walk = std::move(walk)](const hadoop::EmitFn& emit) {
    CellEmitter out(keys, emit);
    walk([&](const grid::Coord& cell, i32 value) { out.emit(var, cell, value); });
    out.finish();
  }};
}

/// The reduce side of a query. A combiner needs op == kSum; re-aggregating
/// contiguous outputs (§IV-B) applies to aggregate keys only.
struct CellReduceOptions {
  CellOp op = CellOp::kMedian;
  bool use_combiner = false;
  bool reaggregate_output = false;
};

/// Wires `tasks` into a job for keys.mode: a router that cuts keys.space
/// into base.num_reducers equal-cell curve ranges, the mode's grouper and
/// reduce, and the combiner when requested. Throws std::logic_error when a
/// combiner is requested for a holistic op.
PreparedJob assembleQuery(const QueryKeys& keys, std::vector<hadoop::MapTask> tasks,
                          const CellReduceOptions& reduce, hadoop::JobConfig base);

/// Runs the job and folds what its routing_counters gained during the run
/// into the result's counters and telemetry, so reports show them.
hadoop::JobResult runPreparedJob(const PreparedJob& job);

/// The serial oracle of a walk: coordinate -> op over every value the walk
/// hands that cell.
template <typename Walk>
std::map<grid::Coord, i32> cellOracle(CellOp op, Walk&& walk) {
  std::map<grid::Coord, std::vector<i32>> gathered;
  walk([&](const grid::Coord& cell, i32 value) { gathered[cell].push_back(value); });
  std::map<grid::Coord, i32> out;
  for (auto& [cell, values] : gathered) out.emplace_hint(out.end(), cell, applyCellOp(op, values));
  return out;
}

/// The box [0, dims) of a variable: the domain its map tasks split.
grid::Box inputDomainOf(const grid::Variable& input);

}  // namespace scishuffle::scikey
