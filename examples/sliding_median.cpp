// The paper's flagship query end-to-end, with knobs on the command line:
//
//   sliding_median [side] [radius] [mappers] [reducers] [codec] [curve]
//
// e.g. ./build/examples/sliding_median 200 1 10 5 transform+gzipish zorder
//
// Runs the sliding median in all three configurations the paper compares
// (plain simple keys, simple keys + intermediate codec, aggregate keys),
// verifies they agree, and prints the shuffle accounting for each.
#include <cstdlib>
#include <iostream>
#include <string>

#include "grid/dataset.h"
#include "hadoop/runtime.h"
#include "scikey/sliding_query.h"

using namespace scishuffle;

namespace {

void report(const std::string& label, const hadoop::JobResult& result, double seconds) {
  namespace c = hadoop::counter;
  std::cout << label << "\n";
  std::cout << "  wall time:            " << seconds << " s\n";
  std::cout << "  map output records:   " << result.counters.get(c::kMapOutputRecords) << "\n";
  std::cout << "  map output bytes:     " << result.counters.get(c::kMapOutputBytes) << "\n";
  std::cout << "  materialized bytes:   " << result.counters.get(c::kMapOutputMaterializedBytes)
            << "\n";
  std::cout << "  reduce input groups:  " << result.counters.get(c::kReduceInputGroups) << "\n";
  std::cout << "  overlap key splits:   " << result.counters.get(c::kKeySplitsOverlap) << "\n\n";
}

int run(int argc, char** argv) {
  const i64 side = argc > 1 ? std::atol(argv[1]) : 128;
  const int radius = argc > 2 ? std::atoi(argv[2]) : 1;
  const int mappers = argc > 3 ? std::atoi(argv[3]) : 8;
  const int reducers = argc > 4 ? std::atoi(argv[4]) : 4;
  const std::string codec = argc > 5 ? argv[5] : "transform+gzipish";
  const std::string curve = argc > 6 ? argv[6] : "zorder";

  std::cout << "sliding (" << 2 * radius + 1 << "x" << 2 * radius + 1 << ") median over a "
            << side << "x" << side << " int grid; " << mappers << " mappers, " << reducers
            << " reducers\n\n";

  grid::Variable input("pressure", grid::DataType::kInt32, grid::Shape({side, side}));
  grid::gen::fillRandomInt(input, 2012, 100000);

  scikey::SlidingQueryConfig query;
  query.window_radius = radius;
  query.num_mappers = mappers;
  query.curve = sfc::curveKindFromName(curve);

  hadoop::JobConfig base;
  base.num_reducers = reducers;
  base.map_slots = mappers;

  auto timeIt = [](auto&& fn) {
    const auto start = std::chrono::steady_clock::now();
    auto result = fn();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return std::pair{std::move(result), secs};
  };

  // Plain simple keys.
  auto plainJob = scikey::buildSimpleSlidingJob(input, query, base);
  auto [plain, plainSecs] =
      timeIt([&] { return hadoop::runJob(plainJob.job, plainJob.map_tasks, plainJob.reduce); });
  report("[1] simple keys, no codec", plain, plainSecs);

  // Simple keys + the SIII byte-level codec.
  hadoop::JobConfig codecBase = base;
  codecBase.intermediate_codec = codec;
  auto codecJob = scikey::buildSimpleSlidingJob(input, query, codecBase);
  auto [coded, codedSecs] =
      timeIt([&] { return hadoop::runJob(codecJob.job, codecJob.map_tasks, codecJob.reduce); });
  report("[2] simple keys + codec '" + codec + "'", coded, codedSecs);

  // Aggregate keys.
  auto aggJob = scikey::buildAggregateSlidingJob(input, query, base);
  auto [agg, aggSecs] =
      timeIt([&] { return hadoop::runJob(aggJob.job, aggJob.map_tasks, aggJob.reduce); });
  report("[3] aggregate keys (" + curve + ")", agg, aggSecs);

  const auto reference = scikey::flattenSimpleOutputs(plain, 2);
  const bool ok = scikey::flattenSimpleOutputs(coded, 2) == reference &&
                  scikey::flattenAggregateOutputs(agg, *aggJob.space) == reference;
  std::cout << "all three configurations agree: " << (ok ? "yes" : "NO") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {  // e.g. an unknown codec or curve name
    std::cerr << "sliding_median: " << e.what() << "\n";
    return 2;
  }
}
