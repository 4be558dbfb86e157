// End-to-end equivalence: the sliding-window query must produce identical
// per-cell results in every configuration — serial oracle, simple keys
// (with/without codecs), and aggregate keys (any curve, flush threshold,
// mapper count) — across every engine knob the paper's experiments turn.
#include <gtest/gtest.h>

#include <tuple>

#include "grid/dataset.h"
#include "hadoop/runtime.h"
#include "scikey/simple_key.h"
#include "scikey/sliding_query.h"

namespace scishuffle::scikey {
namespace {

grid::Variable makeInput(i64 nx, i64 ny, u32 seed) {
  grid::Variable v("pressure", grid::DataType::kInt32, grid::Shape({nx, ny}));
  grid::gen::fillRandomInt(v, seed, 1000);
  return v;
}

// (mappers, reducers, curve, flush threshold, codec)
using AggCase = std::tuple<int, int, sfc::CurveKind, std::size_t, std::string>;

class AggregateEquivalence : public ::testing::TestWithParam<AggCase> {};

TEST_P(AggregateEquivalence, MatchesOracle) {
  const auto& [mappers, reducers, curve, flushBytes, codec] = GetParam();
  const grid::Variable input = makeInput(24, 18, 42);

  SlidingQueryConfig config;
  config.num_mappers = mappers;
  config.curve = curve;
  config.flush_threshold_bytes = flushBytes;

  hadoop::JobConfig base;
  base.num_reducers = reducers;
  base.map_slots = 3;
  base.intermediate_codec = codec;

  PreparedJob job = buildAggregateSlidingJob(input, config, base);
  const auto result = hadoop::runJob(job.job, job.map_tasks, job.reduce);
  EXPECT_EQ(flattenAggregateOutputs(result, *job.space), slidingOracle(input, config));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AggregateEquivalence,
    ::testing::Values(AggCase{1, 1, sfc::CurveKind::kZOrder, 8u << 20, "null"},
                      AggCase{4, 3, sfc::CurveKind::kZOrder, 8u << 20, "null"},
                      AggCase{4, 3, sfc::CurveKind::kHilbert, 8u << 20, "null"},
                      AggCase{4, 3, sfc::CurveKind::kRowMajor, 8u << 20, "null"},
                      AggCase{3, 5, sfc::CurveKind::kZOrder, 4096, "null"},  // many flushes
                      AggCase{2, 2, sfc::CurveKind::kZOrder, 8u << 20, "gzipish"},
                      AggCase{5, 4, sfc::CurveKind::kHilbert, 2048, "transform+gzipish"}),
    [](const ::testing::TestParamInfo<AggCase>& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "r" +
             std::to_string(std::get<1>(info.param)) + "_" +
             sfc::curveKindName(std::get<2>(info.param)) + "_f" +
             std::to_string(std::get<3>(info.param)) + "_" +
             (std::get<4>(info.param) == "null"
                  ? "plain"
                  : (std::get<4>(info.param) == "gzipish" ? "gz" : "tgz"));
    });

TEST(SimpleEquivalence, MatchesOracleWithAndWithoutCodec) {
  const grid::Variable input = makeInput(20, 20, 7);
  SlidingQueryConfig config;
  config.num_mappers = 3;
  for (const char* codec : {"null", "gzipish", "transform+gzipish"}) {
    hadoop::JobConfig base;
    base.num_reducers = 4;
    base.intermediate_codec = codec;
    PreparedJob job = buildSimpleSlidingJob(input, config, base);
    const auto result = hadoop::runJob(job.job, job.map_tasks, job.reduce);
    EXPECT_EQ(flattenSimpleOutputs(result, 2), slidingOracle(input, config)) << codec;
  }
}

TEST(SimpleVsAggregate, IdenticalResultsAndSmallerShuffle) {
  const grid::Variable input = makeInput(40, 40, 3);
  SlidingQueryConfig config;
  config.num_mappers = 4;

  hadoop::JobConfig base;
  base.num_reducers = 5;

  PreparedJob simple = buildSimpleSlidingJob(input, config, base);
  const auto simpleResult = hadoop::runJob(simple.job, simple.map_tasks, simple.reduce);

  PreparedJob agg = buildAggregateSlidingJob(input, config, base);
  const auto aggResult = hadoop::runJob(agg.job, agg.map_tasks, agg.reduce);

  EXPECT_EQ(flattenAggregateOutputs(aggResult, *agg.space),
            flattenSimpleOutputs(simpleResult, 2));

  // The headline claim: aggregate keys shrink materialized intermediate data.
  const u64 simpleBytes =
      simpleResult.counters.get(hadoop::counter::kMapOutputMaterializedBytes);
  const u64 aggBytes = aggResult.counters.get(hadoop::counter::kMapOutputMaterializedBytes);
  EXPECT_LT(aggBytes * 2, simpleBytes);

  // Splitting actually happened in this configuration.
  EXPECT_GT(agg.routing_counters->get(hadoop::counter::kKeySplitsRouting), 0u);
  EXPECT_GT(aggResult.counters.get(hadoop::counter::kKeySplitsOverlap), 0u);
}

TEST(SimpleVsAggregate, RoutersSendEveryCellToTheSameReducer) {
  const grid::Variable input = makeInput(23, 17, 5);
  for (const sfc::CurveKind curve : {sfc::CurveKind::kZOrder, sfc::CurveKind::kHilbert,
                                     sfc::CurveKind::kGray, sfc::CurveKind::kRowMajor}) {
    SlidingQueryConfig config;
    config.curve = curve;
    hadoop::JobConfig base;
    base.num_reducers = 5;
    const PreparedJob simple = buildSimpleSlidingJob(input, config, base);
    const PreparedJob agg = buildAggregateSlidingJob(input, config, base);

    u64 cells = 0;
    u64 disagreements = 0;
    agg.space->domain().forEachCell([&](const grid::Coord& c) {
      ++cells;
      const auto bySimple = simple.job.router(
          hadoop::KeyValue{serializeSimpleKey(SimpleKey{0, "", c}, VariableTag::kIndex),
                           encodeCellValue(1)},
          5);
      const auto byAggregate = agg.job.router(
          hadoop::KeyValue{serializeAggregateKey({0, agg.space->encode(c), 1}),
                           encodeCellValue(1)},
          5);
      if (bySimple.size() != 1 || byAggregate.size() != 1 ||
          bySimple[0].first != byAggregate[0].first) {
        ++disagreements;
      }
    });
    EXPECT_EQ(cells, 25u * 19u);
    EXPECT_EQ(disagreements, 0u) << sfc::curveKindName(curve);
  }
}

TEST(SlidingQuery, ReducersGetEqualCellShares) {
  // The 40x40 median's output domain is 42x42 = 1,764 cells, which fill
  // less than half of the 64x64 Z-order lattice around them. Each of four
  // reducers must still own a quarter of the cells, in both configurations
  // (cells, not records or bytes: border cells receive fewer records).
  const grid::Variable input = makeInput(40, 40, 9);
  SlidingQueryConfig config;
  hadoop::JobConfig base;
  base.num_reducers = 4;

  PreparedJob simple = buildSimpleSlidingJob(input, config, base);
  const auto simpleResult = hadoop::runJob(simple.job, simple.map_tasks, simple.reduce);
  PreparedJob agg = buildAggregateSlidingJob(input, config, base);
  const auto aggResult = hadoop::runJob(agg.job, agg.map_tasks, agg.reduce);

  ASSERT_EQ(simpleResult.outputs.size(), 4u);
  ASSERT_EQ(aggResult.outputs.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    const u64 simpleCells = simpleResult.outputs[r].size();
    u64 aggCells = 0;
    for (const auto& kv : aggResult.outputs[r]) aggCells += deserializeAggregateKey(kv.key).count;
    EXPECT_TRUE(simpleCells >= 440 && simpleCells <= 442)
        << "simple reducer " << r << ": " << simpleCells << " cells";
    EXPECT_TRUE(aggCells >= 440 && aggCells <= 442)
        << "aggregate reducer " << r << ": " << aggCells << " cells";
  }
}

TEST(SlidingQuery, AnotherReducerCountFailsTheJob) {
  // Each router is cut for the reducer count its job was built with. Run
  // with another count, the job must fail with the router's check rather
  // than misroute, and an aggregate map task must fail, not abort the
  // process while its Aggregator unwinds.
  const grid::Variable input = makeInput(12, 10, 4);
  SlidingQueryConfig config;
  hadoop::JobConfig base;
  base.num_reducers = 4;
  for (const bool aggregate : {false, true}) {
    PreparedJob job = aggregate ? buildAggregateSlidingJob(input, config, base)
                                : buildSimpleSlidingJob(input, config, base);
    job.job.num_reducers = 3;
    EXPECT_THROW(hadoop::runJob(job.job, job.map_tasks, job.reduce), std::logic_error)
        << (aggregate ? "aggregate" : "simple");
  }
}

TEST(SlidingQuery, OtherCellOpsAndRadii) {
  const grid::Variable input = makeInput(15, 12, 11);
  for (const CellOp op : {CellOp::kMean, CellOp::kSum}) {
    for (const int radius : {1, 2}) {
      SlidingQueryConfig config;
      config.op = op;
      config.window_radius = radius;
      config.num_mappers = 3;
      hadoop::JobConfig base;
      base.num_reducers = 3;
      PreparedJob job = buildAggregateSlidingJob(input, config, base);
      const auto result = hadoop::runJob(job.job, job.map_tasks, job.reduce);
      EXPECT_EQ(flattenAggregateOutputs(result, *job.space), slidingOracle(input, config));
    }
  }
}

TEST(SlidingQuery, ReaggregationPreservesResultsAndShrinksOutput) {
  const grid::Variable input = makeInput(30, 30, 21);
  SlidingQueryConfig config;
  config.num_mappers = 4;
  hadoop::JobConfig base;
  base.num_reducers = 3;

  PreparedJob off = buildAggregateSlidingJob(input, config, base);
  const auto offResult = hadoop::runJob(off.job, off.map_tasks, off.reduce);

  config.reaggregate_output = true;
  PreparedJob on = buildAggregateSlidingJob(input, config, base);
  const auto onResult = hadoop::runJob(on.job, on.map_tasks, on.reduce);

  EXPECT_EQ(flattenAggregateOutputs(onResult, *on.space),
            flattenAggregateOutputs(offResult, *off.space));
  EXPECT_LT(onResult.counters.get(hadoop::counter::kReduceOutputRecords),
            offResult.counters.get(hadoop::counter::kReduceOutputRecords));
}

TEST(SlidingQuery, CombinerPreservesSumAndShrinksShuffle) {
  const grid::Variable input = makeInput(32, 32, 13);
  SlidingQueryConfig config;
  config.op = CellOp::kSum;
  config.num_mappers = 4;
  hadoop::JobConfig base;
  base.num_reducers = 3;
  base.spill_buffer_bytes = 4096;  // several spills so the combiner matters

  for (const bool aggregate : {false, true}) {
    auto build = aggregate ? buildAggregateSlidingJob : buildSimpleSlidingJob;
    config.use_combiner = false;
    PreparedJob plain = build(input, config, base);
    const auto plainResult = hadoop::runJob(plain.job, plain.map_tasks, plain.reduce);
    config.use_combiner = true;
    PreparedJob combined = build(input, config, base);
    const auto combinedResult =
        hadoop::runJob(combined.job, combined.map_tasks, combined.reduce);

    const auto expected = aggregate ? flattenAggregateOutputs(plainResult, *plain.space)
                                    : flattenSimpleOutputs(plainResult, 2);
    const auto got = aggregate ? flattenAggregateOutputs(combinedResult, *combined.space)
                               : flattenSimpleOutputs(combinedResult, 2);
    EXPECT_EQ(got, expected) << (aggregate ? "aggregate" : "simple");
    EXPECT_EQ(got, slidingOracle(input, config));
    EXPECT_LE(combinedResult.counters.get(hadoop::counter::kMapOutputMaterializedBytes),
              plainResult.counters.get(hadoop::counter::kMapOutputMaterializedBytes));
    EXPECT_GT(combinedResult.counters.get(hadoop::counter::kCombineInputRecords), 0u);
  }
}

TEST(SlidingQuery, CombinerWithHolisticOpIsRejected) {
  const grid::Variable input = makeInput(8, 8, 1);
  SlidingQueryConfig config;
  config.op = CellOp::kMedian;
  config.use_combiner = true;
  EXPECT_THROW(buildAggregateSlidingJob(input, config, hadoop::JobConfig{}), std::logic_error);
  EXPECT_THROW(buildSimpleSlidingJob(input, config, hadoop::JobConfig{}), std::logic_error);
}

TEST(SlidingQuery, BisectSplitsMatchOracleAndAggregateBetter) {
  const grid::Variable input = makeInput(48, 48, 29);
  SlidingQueryConfig config;
  config.num_mappers = 8;
  hadoop::JobConfig base;
  base.num_reducers = 4;

  config.split_strategy = SplitStrategy::kSlabs;
  PreparedJob slabs = buildAggregateSlidingJob(input, config, base);
  const auto slabResult = hadoop::runJob(slabs.job, slabs.map_tasks, slabs.reduce);

  config.split_strategy = SplitStrategy::kRecursiveBisect;
  PreparedJob bisect = buildAggregateSlidingJob(input, config, base);
  const auto bisectResult = hadoop::runJob(bisect.job, bisect.map_tasks, bisect.reduce);

  const auto oracle = slidingOracle(input, config);
  EXPECT_EQ(flattenAggregateOutputs(slabResult, *slabs.space), oracle);
  EXPECT_EQ(flattenAggregateOutputs(bisectResult, *bisect.space), oracle);
}

TEST(SlidingQuery, MultiVariableJobKeepsVariablesApart) {
  grid::Dataset ds;
  auto& pressure = ds.addVariable("pressure", grid::DataType::kInt32, grid::Shape({20, 20}));
  grid::gen::fillRandomInt(pressure, 1, 500);
  auto& humidity = ds.addVariable("humidity", grid::DataType::kInt32, grid::Shape({14, 26}));
  grid::gen::fillRandomInt(humidity, 2, 500);

  SlidingQueryConfig config;
  config.num_mappers = 3;
  hadoop::JobConfig base;
  base.num_reducers = 4;

  PreparedJob job =
      buildAggregateMultiVariableSlidingJob(ds, {"pressure", "humidity"}, config, base);
  const auto result = hadoop::runJob(job.job, job.map_tasks, job.reduce);
  const auto got = flattenMultiVariableOutputs(result, *job.space);

  // Per-variable results must match the single-variable oracle exactly.
  std::map<std::pair<int, grid::Coord>, i32> expected;
  for (const auto& [coord, v] : slidingOracle(pressure, config)) expected[{0, coord}] = v;
  for (const auto& [coord, v] : slidingOracle(humidity, config)) expected[{1, coord}] = v;
  EXPECT_EQ(got, expected);
}

TEST(SlidingQuery, MultiVariableValidation) {
  grid::Dataset ds;
  ds.addVariable("a", grid::DataType::kInt32, grid::Shape({4, 4}));
  ds.addVariable("b", grid::DataType::kInt32, grid::Shape({4, 4, 4}));  // wrong rank
  ds.addVariable("f", grid::DataType::kFloat32, grid::Shape({4, 4}));   // wrong type
  SlidingQueryConfig config;
  hadoop::JobConfig base;
  EXPECT_THROW(buildAggregateMultiVariableSlidingJob(ds, {}, config, base), std::logic_error);
  EXPECT_THROW(buildAggregateMultiVariableSlidingJob(ds, {"a", "b"}, config, base),
               std::logic_error);
  EXPECT_THROW(buildAggregateMultiVariableSlidingJob(ds, {"a", "f"}, config, base),
               std::logic_error);
}

TEST(SlidingQuery, ThreeDimensionalInput) {
  grid::Variable input("v", grid::DataType::kInt32, grid::Shape({8, 8, 8}));
  grid::gen::fillRandomInt(input, 5, 100);
  SlidingQueryConfig config;
  config.num_mappers = 4;
  hadoop::JobConfig base;
  base.num_reducers = 3;
  PreparedJob job = buildAggregateSlidingJob(input, config, base);
  const auto result = hadoop::runJob(job.job, job.map_tasks, job.reduce);
  EXPECT_EQ(flattenAggregateOutputs(result, *job.space), slidingOracle(input, config));
}

}  // namespace
}  // namespace scishuffle::scikey
