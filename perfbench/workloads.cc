#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "bench_util/bench_util.h"
#include "grid/box.h"
#include "scikey/simple_key.h"

namespace perfbench {

namespace hadoop = scishuffle::hadoop;
namespace scikey = scishuffle::scikey;
namespace grid = scishuffle::grid;
using scishuffle::Bytes;
using scishuffle::i32;
using scishuffle::i64;

namespace {

constexpr int kMapTasks = 8;
constexpr i64 kWalkSide = 100;          // Fig. 3: 100^3 grid walk
constexpr i64 kRandomGridSide = 1000;   // Fig. 8: 1000 x 1000 grid
constexpr i64 kMedianSide = 600;        // §IV-D sliding median input

/// One map task per slab of dimension 0; each emits every cell of its slab
/// in row-major order as (index simple key, big-endian value).
std::vector<hadoop::MapTask> cellMapTasks(const grid::Variable& input) {
  const std::vector<i64>& dims = input.shape().dims();
  std::vector<hadoop::MapTask> tasks;
  for (int s = 0; s < kMapTasks; ++s) {
    const i64 lo = dims[0] * s / kMapTasks;
    const i64 hi = dims[0] * (s + 1) / kMapTasks;
    grid::Coord corner(dims.size(), 0);
    corner[0] = lo;
    std::vector<i64> extent = dims;
    extent[0] = hi - lo;
    const grid::Box slab(corner, extent);
    tasks.push_back(hadoop::MapTask{[&input, slab](const hadoop::EmitFn& emit) {
      slab.forEachCell([&](const grid::Coord& c) {
        emit(scikey::serializeSimpleKey(scikey::SimpleKey{0, "", c}, scikey::VariableTag::kIndex),
             input.serializedValueAt(c));
      });
    }});
  }
  return tasks;
}

/// Identity reduce that keeps every value, so a duplicated record shows up
/// as a duplicated output cell.
void identityReduce(const Bytes& key, std::vector<Bytes>& values, const hadoop::EmitFn& emit) {
  for (Bytes& v : values) emit(key, std::move(v));
}

hadoop::JobConfig baseConfig(const RunShape& shape, const std::string& codec) {
  hadoop::JobConfig config;
  config.num_reducers = shape.num_reducers;
  config.map_slots = shape.map_slots;
  config.reduce_slots = shape.reduce_slots;
  config.codec_threads = shape.codec_threads;
  config.intermediate_codec = codec;
  return config;
}

/// Routes a walk key by its x coordinate so each reducer receives one
/// contiguous x-range: its merged input is an unbroken piece of the walk.
hadoop::RouteFn xRangeRouter(i64 side) {
  return [side](hadoop::KeyValue&& record, int numPartitions) {
    const i64 x = scikey::readSortableI32(record.key, 4);  // after the 4-byte variable index
    const int p = static_cast<int>(std::clamp<i64>(x * numPartitions / side, 0, numPartitions - 1));
    std::vector<std::pair<int, hadoop::KeyValue>> out;
    out.emplace_back(p, std::move(record));
    return out;
  };
}

u64 fnv1a(u64 h, i64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<u64>(v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

Reference digestOf(const std::map<grid::Coord, i32>& cells) {
  Reference ref;
  ref.cells = cells.size();
  ref.digest = 14695981039346656037ull;
  for (const auto& [coord, value] : cells) {
    for (const i64 c : coord) ref.digest = fnv1a(ref.digest, c);
    ref.digest = fnv1a(ref.digest, value);
  }
  return ref;
}

std::string verifyGridCells(const grid::Variable& input, const hadoop::JobResult& result) {
  const grid::Shape& shape = input.shape();
  std::vector<bool> seen(static_cast<std::size_t>(shape.volume()), false);
  u64 returned = 0;
  for (const auto& reducerOutput : result.outputs) {
    for (const auto& kv : reducerOutput) {
      const scikey::SimpleKey key =
          scikey::deserializeSimpleKey(kv.key, scikey::VariableTag::kIndex, shape.rank());
      for (int d = 0; d < shape.rank(); ++d) {
        const i64 c = key.coords[static_cast<std::size_t>(d)];
        if (c < 0 || c >= shape.dim(d)) return "output key outside the input grid";
      }
      const auto cell = static_cast<std::size_t>(shape.linearize(key.coords));
      if (seen[cell]) return "cell " + grid::coordToString(key.coords) + " returned twice";
      seen[cell] = true;
      if (kv.value != input.serializedValueAt(key.coords)) {
        return "cell " + grid::coordToString(key.coords) + " has the wrong value";
      }
      ++returned;
    }
  }
  if (returned != static_cast<u64>(shape.volume())) {
    return std::to_string(static_cast<u64>(shape.volume()) - returned) + " cells missing";
  }
  return {};
}

}  // namespace

std::unique_ptr<Workload> buildWorkload(const std::string& name, u32 seed, const RunShape& shape) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  if (name == "walk_xform") {
    // The Fig. 3 walk is fixed by definition; the seed does not change it.
    w->input = std::make_unique<grid::Variable>(
        "walk", grid::DataType::kInt32, grid::Shape({kWalkSide, kWalkSide, kWalkSide}));
    grid::gen::fillLinear(*w->input);
    w->job.map_tasks = cellMapTasks(*w->input);
    w->job.reduce = identityReduce;
    w->job.job = baseConfig(shape, "transform+gzipish");
    w->job.job.router = xRangeRouter(kWalkSide);
  } else if (name == "grid_random_xform") {
    w->input = std::make_unique<grid::Variable>(
        scishuffle::bench::makeIntGrid("field", {kRandomGridSide, kRandomGridSide}, seed));
    w->job.map_tasks = cellMapTasks(*w->input);
    w->job.reduce = identityReduce;
    w->job.job = baseConfig(shape, "transform+gzipish");  // default hash routing
  } else if (name == "median_simple_null" || name == "median_agg_null") {
    const bool aggregate = name == "median_agg_null";
    w->check = aggregate ? Check::kSlidingAggregate : Check::kSlidingSimple;
    w->input = std::make_unique<grid::Variable>(
        scishuffle::bench::makeIntGrid("grid", {kMedianSide, kMedianSide}, seed));
    w->query.num_mappers = kMapTasks;
    const hadoop::JobConfig base = baseConfig(shape, "null");
    w->job = aggregate ? scikey::buildAggregateSlidingJob(*w->input, w->query, base)
                       : scikey::buildSimpleSlidingJob(*w->input, w->query, base);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

Reference computeReference(const Workload& workload) {
  if (workload.check == Check::kGridCells) return {};
  return digestOf(scikey::slidingOracle(*workload.input, workload.query));
}

std::string verifyOutput(const Workload& workload, const Reference& reference,
                         const hadoop::JobResult& result) {
  try {
    if (workload.check == Check::kGridCells) return verifyGridCells(*workload.input, result);
    const Reference got =
        digestOf(workload.check == Check::kSlidingSimple
                     ? scikey::flattenSimpleOutputs(result, workload.input->shape().rank())
                     : scikey::flattenAggregateOutputs(result, *workload.job.space));
    if (got.cells != reference.cells) {
      return std::to_string(got.cells) + " output cells, oracle has " +
             std::to_string(reference.cells);
    }
    if (got.digest != reference.digest) return "output differs from slidingOracle";
    return {};
  } catch (const std::exception& e) {
    return std::string("malformed output: ") + e.what();
  }
}

}  // namespace perfbench
