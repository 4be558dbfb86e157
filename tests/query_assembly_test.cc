// The scikey query builders on their shared assembly. Golden digests pin,
// for every builder, in both key configurations where it has both, and
// across the knobs the paper's experiments turn, the map tasks' segments and
// the job's outputs: a change to what a builder emits, how its router cuts,
// or what its reduce writes shows here. MapOutputGoldenTest and
// ReduceGoldenTest pin the engine on hand-written jobs; this pins the
// builders on top of it. The combiner rule is checked on the builder that
// once wired its own reduce without it.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "grid/dataset.h"
#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "scikey/slab_query.h"
#include "scikey/sliding_query.h"
#include "testing_support.h"

namespace scishuffle::scikey {
namespace {

grid::Variable makeInput(std::vector<i64> dims, u32 seed) {
  grid::Variable v("v", grid::DataType::kInt32, grid::Shape(std::move(dims)));
  grid::gen::fillRandomInt(v, seed, 1000);
  return v;
}

/// The builders' inputs; jobs refer to them, so they outlive every case.
struct Inputs {
  grid::Variable flat = makeInput({24, 18}, 42);
  grid::Variable cube = makeInput({9, 8, 7}, 5);
  grid::Dataset dataset;

  Inputs() {
    grid::gen::fillRandomInt(
        dataset.addVariable("pressure", grid::DataType::kInt32, grid::Shape({20, 20})), 1, 500);
    grid::gen::fillRandomInt(
        dataset.addVariable("humidity", grid::DataType::kInt32, grid::Shape({14, 26})), 2, 500);
  }
};

struct BuilderCase {
  std::string name;
  PreparedJob job;
};

std::vector<BuilderCase> builderCases(const Inputs& in) {
  std::vector<BuilderCase> cases;
  hadoop::JobConfig base;
  base.num_reducers = 3;
  base.map_slots = 2;

  for (const bool aggregate : {false, true}) {
    const std::string mode = aggregate ? "aggregate" : "simple";
    const auto sliding = [&](const std::string& name, const grid::Variable& input,
                             const SlidingQueryConfig& query, const hadoop::JobConfig& config) {
      cases.push_back({mode + "_sliding_" + name,
                       aggregate ? buildAggregateSlidingJob(input, query, config)
                                 : buildSimpleSlidingJob(input, query, config)});
    };
    SlidingQueryConfig query;
    sliding("2d", in.flat, query, base);
    {
      SlidingQueryConfig q = query;
      q.window_radius = 2;
      q.op = CellOp::kMean;
      sliding("2d_radius2_mean", in.flat, q, base);
    }
    {
      SlidingQueryConfig q = query;
      q.num_mappers = 3;
      sliding("3d", in.cube, q, base);
      q.window_radius = 2;
      sliding("3d_radius2", in.cube, q, base);
    }
    {
      SlidingQueryConfig q = query;
      q.num_mappers = 5;
      q.split_strategy = SplitStrategy::kRecursiveBisect;
      sliding("bisect", in.flat, q, base);
    }
    {
      SlidingQueryConfig q = query;
      q.op = CellOp::kSum;
      q.use_combiner = true;
      hadoop::JobConfig config = base;
      config.spill_buffer_bytes = 4096;
      sliding("sum_combiner", in.flat, q, config);
    }
    {
      SlidingQueryConfig q = query;
      q.curve = sfc::CurveKind::kHilbert;
      hadoop::JobConfig config = base;
      config.num_reducers = 4;
      sliding("hilbert_4_reducers", in.flat, q, config);
    }
    if (aggregate) {
      SlidingQueryConfig q = query;
      q.reaggregate_output = true;
      sliding("reaggregated", in.flat, q, base);
      q = query;
      q.alignment = 4;
      sliding("alignment4", in.flat, q, base);
      q = query;
      q.flush_threshold_bytes = 2048;
      sliding("flush2k", in.flat, q, base);
      q = query;
      q.num_mappers = 3;
      cases.push_back({"aggregate_multivariable",
                       buildAggregateMultiVariableSlidingJob(in.dataset, {"pressure", "humidity"},
                                                             q, base)});
    }

    for (int dim = 0; dim < 3; ++dim) {
      for (const bool combiner : {false, true}) {
        SlabQueryConfig slab;
        slab.reduced_dims = {dim};
        slab.num_mappers = 3;
        slab.op = combiner ? CellOp::kSum : CellOp::kMean;
        slab.use_combiner = combiner;
        cases.push_back({mode + "_slab_dim" + std::to_string(dim) + (combiner ? "_combiner" : ""),
                         aggregate ? buildAggregateSlabJob(in.cube, slab, base)
                                   : buildSimpleSlabJob(in.cube, slab, base)});
      }
    }
  }
  return cases;
}

/// Appends `data` to `out` behind its length, so that bytes moving between
/// neighbouring fields change the digest.
void appendFramed(Bytes& out, ByteSpan data) {
  MemorySink sink(out);
  writeU32(sink, static_cast<u32>(data.size()));
  sink.write(data);
}

struct GoldenBuilderBytes {
  const char* name;
  u64 map_records;
  u64 segments_digest;  // every map task's segments, in task and partition order
  u64 output_digest;    // every reducer's output records, in order
};

// Recorded while each builder still wired its own router, grouper, reduce
// and combiner, before the five shared one assembly.
const GoldenBuilderBytes kGoldenBuilderBytes[] = {
    {"simple_sliding_2d", 3888, 0x83065c37b3c01959ull, 0x34c385e09ac36719ull},
    {"simple_sliding_2d_radius2_mean", 10800, 0x4a290a8e4d2953d9ull, 0xcdab22cbae080d8aull},
    {"simple_sliding_3d", 13608, 0x1da9b194ff1d16b7ull, 0xf4ef174d5521a9d2ull},
    {"simple_sliding_3d_radius2", 63000, 0x085b9fa26e8b1116ull, 0xde4f155300471f05ull},
    {"simple_sliding_bisect", 3888, 0x0e3467ba79a0135bull, 0x34c385e09ac36719ull},
    {"simple_sliding_sum_combiner", 3888, 0x4229e4794e99a2d3ull, 0xf2899ab895e7e5c4ull},
    {"simple_sliding_hilbert_4_reducers", 3888, 0x18ae2f439e7d8cd5ull, 0x3cd21326a2668409ull},
    {"simple_slab_dim0", 504, 0x76a4b16b88c4e7f0ull, 0xf8bb3ac4e9c76df3ull},
    {"simple_slab_dim0_combiner", 504, 0x4d9e47752680196dull, 0x6fd8ab7bf748b710ull},
    {"simple_slab_dim1", 504, 0xce09679f9fa0e6cbull, 0x26ccaca491c6e88cull},
    {"simple_slab_dim1_combiner", 504, 0x97f90e408dfb145dull, 0x450c70e3d545ad7dull},
    {"simple_slab_dim2", 504, 0xfce992d1340a0340ull, 0x394a03fa2dee9b2bull},
    {"simple_slab_dim2_combiner", 504, 0xfa22716721ec685full, 0xe312deecb5444901ull},
    {"aggregate_sliding_2d", 731, 0x4ded6d8947c33ea8ull, 0x2acba6d6a1539601ull},
    {"aggregate_sliding_2d_radius2_mean", 2155, 0x0c0a0aeb05ccc480ull, 0xc06a192072013d3bull},
    {"aggregate_sliding_3d", 5099, 0x17fb4584e77345b1ull, 0x5824eeb8e70b8bffull},
    {"aggregate_sliding_3d_radius2", 16419, 0x1ab49e7bbd9a59f1ull, 0xde24b95dfbc6d900ull},
    {"aggregate_sliding_bisect", 645, 0x99bce1660c38f9e4ull, 0x635a89e042e95bdeull},
    {"aggregate_sliding_sum_combiner", 731, 0xf8cb320af7a1eeefull, 0x7df0464f9fefcc8cull},
    {"aggregate_sliding_hilbert_4_reducers", 359, 0x57f8dfad66449d58ull, 0xcc448392f3ca17c3ull},
    {"aggregate_sliding_reaggregated", 731, 0x4ded6d8947c33ea8ull, 0x4a5f226338e06e95ull},
    {"aggregate_sliding_alignment4", 1338, 0x84997f2edcf811c4ull, 0xc60347748619aa78ull},
    {"aggregate_sliding_flush2k", 1874, 0x45f11de462b4b3c6ull, 0xb636a0c93d40f0f9ull},
    {"aggregate_multivariable", 1482, 0x08bf863096c2f60eull, 0x625e0e94d894ca97ull},
    {"aggregate_slab_dim0", 54, 0xed25f99d368ddb00ull, 0xc9dd8e32bf4358a8ull},
    {"aggregate_slab_dim0_combiner", 54, 0xb653aed1818cf09eull, 0x21e2cafa2cfd3af7ull},
    {"aggregate_slab_dim1", 240, 0xc9dc578028167405ull, 0xa027fd1ed2659af4ull},
    {"aggregate_slab_dim1_combiner", 240, 0xebc9ca615ee2d065ull, 0xa4080694a14fc551ull},
    {"aggregate_slab_dim2", 210, 0x843d024b3bacc370ull, 0x73b240cebbd66ed3ull},
    {"aggregate_slab_dim2_combiner", 210, 0x1b1966bc094e31daull, 0x52bf0af4256f6e8dull},
};

TEST(ScikeyGoldenTest, BuilderBytesAreUnchanged) {
  registerBuiltinCodecs();
  const Inputs inputs;
  const std::vector<BuilderCase> cases = builderCases(inputs);
  ASSERT_EQ(std::size(kGoldenBuilderBytes), cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const BuilderCase& tc = cases[c];
    const GoldenBuilderBytes& golden = kGoldenBuilderBytes[c];
    ASSERT_EQ(golden.name, tc.name);

    const auto codec = hadoop::intermediateCodec(tc.job.job.intermediate_codec);
    Bytes segments;
    u64 records = 0;
    for (std::size_t t = 0; t < tc.job.map_tasks.size(); ++t) {
      const hadoop::MapTaskExecution exec =
          hadoop::executeMapTask(tc.job.job, codec.get(), nullptr, tc.job.map_tasks[t], t);
      for (const Bytes& segment : exec.output.segments) appendFramed(segments, segment);
      records += exec.counters.get(hadoop::counter::kMapOutputRecords);
    }

    const hadoop::JobResult result = hadoop::runJob(tc.job.job, tc.job.map_tasks, tc.job.reduce);
    Bytes outputs;
    for (const auto& reducerOutput : result.outputs) {
      for (const hadoop::KeyValue& kv : reducerOutput) {
        appendFramed(outputs, kv.key);
        appendFramed(outputs, kv.value);
      }
    }

    const u64 segmentsDigest = testing::fnv1a64(segments);
    const u64 outputDigest = testing::fnv1a64(outputs);
    EXPECT_EQ(records, golden.map_records) << tc.name;
    EXPECT_EQ(segmentsDigest, golden.segments_digest)
        << tc.name << ": got 0x" << std::hex << segmentsDigest << "ull";
    EXPECT_EQ(outputDigest, golden.output_digest)
        << tc.name << ": got 0x" << std::hex << outputDigest << "ull";
  }
}

TEST(QueryAssemblyTest, MultiVariableCombinerFollowsTheSumOnlyRule) {
  // Sum combines before the shuffle; holistic median refuses a combiner.
  grid::Dataset ds;
  auto& pressure = ds.addVariable("pressure", grid::DataType::kInt32, grid::Shape({16, 16}));
  grid::gen::fillRandomInt(pressure, 3, 500);
  auto& humidity = ds.addVariable("humidity", grid::DataType::kInt32, grid::Shape({12, 18}));
  grid::gen::fillRandomInt(humidity, 4, 500);

  SlidingQueryConfig config;
  config.op = CellOp::kSum;
  config.use_combiner = true;
  config.num_mappers = 3;
  hadoop::JobConfig base;
  base.num_reducers = 3;
  PreparedJob job =
      buildAggregateMultiVariableSlidingJob(ds, {"pressure", "humidity"}, config, base);
  const auto result = hadoop::runJob(job.job, job.map_tasks, job.reduce);
  EXPECT_GT(result.counters.get(hadoop::counter::kCombineInputRecords), 0u);

  std::map<std::pair<int, grid::Coord>, i32> expected;
  for (const auto& [coord, v] : slidingOracle(pressure, config)) expected[{0, coord}] = v;
  for (const auto& [coord, v] : slidingOracle(humidity, config)) expected[{1, coord}] = v;
  EXPECT_EQ(flattenMultiVariableOutputs(result, *job.space), expected);

  config.op = CellOp::kMedian;
  EXPECT_THROW(buildAggregateMultiVariableSlidingJob(ds, {"pressure", "humidity"}, config, base),
               std::logic_error);
}

}  // namespace
}  // namespace scishuffle::scikey
