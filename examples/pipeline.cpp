// Multi-job pipeline: real scientific workflows chain MapReduce jobs, with
// each stage's HDFS output becoming the next stage's input. Here:
//
//   stage 1: sliding 3x3 median over a noisy field (aggregate keys)
//            -> denoised grid, written to a SequenceFile
//   stage 2: slab mean over rows of the denoised grid (aggregate keys)
//            -> one profile value per column
//
// Stage 2's map tasks read stage 1's aggregate records directly — the
// compact representation survives across job boundaries, so the pipeline
// never re-expands to per-point keys.
//
// Usage: pipeline [side]
#include <cstdlib>
#include <iostream>

#include "grid/dataset.h"
#include "hadoop/report.h"
#include "hadoop/runtime.h"
#include "hadoop/sequence_file.h"
#include "io/streams.h"
#include "scikey/aggregate_grouper.h"
#include "scikey/cellwise.h"
#include "scikey/sliding_query.h"

using namespace scishuffle;

int main(int argc, char** argv) {
  const i64 side = argc > 1 ? std::atol(argv[1]) : 96;

  grid::Variable noisy("sensor", grid::DataType::kInt32, grid::Shape({side, side}));
  grid::gen::fillRandomInt(noisy, 77, 1000);

  // ---- Stage 1: denoise with the paper's sliding median.
  scikey::SlidingQueryConfig denoise;
  denoise.num_mappers = 6;
  denoise.reaggregate_output = true;  // compact output records for stage 2
  hadoop::JobConfig cluster;
  cluster.num_reducers = 3;
  cluster.map_slots = 6;

  auto stage1 = scikey::buildAggregateSlidingJob(noisy, denoise, cluster);
  const auto denoised = hadoop::runJob(stage1.job, stage1.map_tasks, stage1.reduce);
  std::cout << "stage 1 (sliding median): " << hadoop::jobSummaryLine(denoised) << "\n";

  // Persist stage 1's output the way Hadoop would (HDFS SequenceFile).
  Bytes stage1File;
  {
    MemorySink sink(stage1File);
    hadoop::SequenceFileHeader header{"scikey.AggregateKey", "int32", "null"};
    writeJobOutputs(sink, denoised.outputs, header);
  }
  std::cout << "stage 1 output: " << stage1File.size() << " bytes in SequenceFile form\n\n";

  // ---- Stage 2: column profile = mean over dimension 0 of the denoised
  // grid. Map tasks read the stage-1 SequenceFile records (aggregate keys)
  // and re-emit per target column through a fresh Aggregator.
  const auto space1 = stage1.space;  // stage 1's curve space decodes its keys
  const grid::Box profileDomain({-1}, {side + 2});  // columns incl. window border
  const auto space2 =
      std::make_shared<scikey::CurveSpace>(sfc::CurveKind::kZOrder, profileDomain);

  std::vector<hadoop::MapTask> stage2Tasks;
  stage2Tasks.push_back(hadoop::MapTask{[&stage1File, space1, space2](const hadoop::EmitFn& emit) {
    scikey::AggregatorConfig aggConfig;
    aggConfig.value_size = 4;
    scikey::Aggregator agg(*space2, aggConfig, emit);
    hadoop::SequenceFileReader reader(stage1File);
    while (auto kv = reader.next()) {
      const scikey::AggregateKey key = scikey::deserializeAggregateKey(kv->key);
      for (u64 i = 0; i < key.count; ++i) {
        const grid::Coord cell = space1->decode(key.start + i);
        const ByteSpan value = ByteSpan(kv->value).subspan(static_cast<std::size_t>(i) * 4, 4);
        agg.add(0, {cell[1]}, value);  // project onto the column axis
      }
    }
  }});

  hadoop::JobConfig stage2Cluster;
  stage2Cluster.num_reducers = 2;
  stage2Cluster.router = scikey::aggregateRangeRouter(
      scikey::CurveCuts(*space2, stage2Cluster.num_reducers), 4, nullptr);
  stage2Cluster.grouper = std::make_shared<scikey::AggregateGrouper>(4, true);
  const auto stage2Reduce = scikey::cellwiseAggregateReduce(scikey::CellOp::kMean);

  const auto profile = hadoop::runJob(stage2Cluster, stage2Tasks, stage2Reduce);
  std::cout << "stage 2 (column mean):    " << hadoop::jobSummaryLine(profile) << "\n";

  const auto cells = scikey::flattenAggregateOutputs(profile, *space2);
  std::cout << "profile cells: " << cells.size() << "\n";
  const grid::Coord mid{side / 2};
  std::cout << "column mean at x=" << mid[0] << ": " << cells.at(mid) << "\n";

  // Sanity: the pipeline's column mean must match a direct computation over
  // stage 1's flattened output.
  const auto denoisedCells = scikey::flattenAggregateOutputs(denoised, *space1);
  std::map<i64, std::pair<i64, i64>> sums;  // column -> (sum, count)
  for (const auto& [coord, v] : denoisedCells) {
    sums[coord[1]].first += v;
    sums[coord[1]].second += 1;
  }
  bool ok = true;
  for (const auto& [column, sc] : sums) {
    const i32 expected = static_cast<i32>(sc.first / sc.second);
    if (cells.at({column}) != expected) {
      ok = false;
      std::cerr << "mismatch at column " << column << "\n";
    }
  }
  std::cout << "pipeline verified end-to-end: " << (ok ? "yes" : "NO") << "\n";
  return ok ? 0 : 1;
}
