#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "scikey/aggregate_grouper.h"
#include "scikey/aggregate_key.h"
#include "scikey/aggregator.h"
#include "scikey/curve_space.h"
#include "scikey/simple_key.h"

namespace scishuffle::scikey {
namespace {

TEST(SimpleKeyTest, RoundTripsBothModes) {
  const SimpleKey key{3, "windspeed1", {-1, 7, 1000}};
  const Bytes indexed = serializeSimpleKey(key, VariableTag::kIndex);
  EXPECT_EQ(indexed.size(), simpleKeySize(key, VariableTag::kIndex));
  EXPECT_EQ(indexed.size(), 4u + 12u);
  SimpleKey back = deserializeSimpleKey(indexed, VariableTag::kIndex, 3);
  EXPECT_EQ(back.varIndex, 3);
  EXPECT_EQ(back.coords, key.coords);

  const Bytes named = serializeSimpleKey(key, VariableTag::kName);
  EXPECT_EQ(named.size(), 11u + 12u);
  back = deserializeSimpleKey(named, VariableTag::kName, 3);
  EXPECT_EQ(back.varName, "windspeed1");
  EXPECT_EQ(back.coords, key.coords);
}

TEST(SimpleKeyTest, ByteOrderMatchesNumericOrder) {
  // The sortable encoding must make lexicographic byte order equal numeric
  // order, including across the sign boundary.
  const std::vector<i64> values = {-100, -1, 0, 1, 99, 1000000};
  for (std::size_t i = 0; i + 1 < values.size(); ++i) {
    const Bytes a = serializeSimpleKey(SimpleKey{0, "", {values[i]}}, VariableTag::kIndex);
    const Bytes b = serializeSimpleKey(SimpleKey{0, "", {values[i + 1]}}, VariableTag::kIndex);
    EXPECT_TRUE(hadoop::lexicographicLess(a, b)) << values[i] << " vs " << values[i + 1];
  }
}

TEST(AggregateKeyTest, RoundTripsAndOrders) {
  const AggregateKey key{2, (sfc::CurveIndex{1} << 80) + 12345, 67890};
  const Bytes bytes = serializeAggregateKey(key);
  EXPECT_EQ(bytes.size(), kAggregateKeySize);
  EXPECT_EQ(deserializeAggregateKey(bytes), key);

  const Bytes smallerStart = serializeAggregateKey(AggregateKey{2, 5, 1});
  const Bytes negVar = serializeAggregateKey(AggregateKey{-1, 999, 1});
  EXPECT_TRUE(hadoop::lexicographicLess(negVar, smallerStart));
  EXPECT_TRUE(hadoop::lexicographicLess(smallerStart, bytes));
}

TEST(AggregateKeyTest, SplitDividesValuesProportionally) {
  const AggregateKey key{0, 10, 6};
  Bytes blob;
  for (u8 i = 0; i < 24; ++i) blob.push_back(i);  // 6 cells x 4 bytes
  const auto [left, right] = splitAggregateRecord(key, blob, 14, 4);
  EXPECT_EQ(deserializeAggregateKey(left.key), (AggregateKey{0, 10, 4}));
  EXPECT_EQ(deserializeAggregateKey(right.key), (AggregateKey{0, 14, 2}));
  EXPECT_EQ(left.value.size(), 16u);
  EXPECT_EQ(right.value, (Bytes{16, 17, 18, 19, 20, 21, 22, 23}));
  EXPECT_THROW(splitAggregateRecord(key, blob, 10, 4), std::logic_error);
  EXPECT_THROW(splitAggregateRecord(key, blob, 16, 4), std::logic_error);
}

TEST(CurveSpaceTest, HandlesNegativeDomains) {
  const grid::Box domain = grid::Box::fromExtents({-1, -1}, {11, 11});
  const CurveSpace space(sfc::CurveKind::kZOrder, domain);
  const grid::Coord c{-1, 5};
  const auto idx = space.encode(c);
  EXPECT_EQ(space.decode(idx), c);
  EXPECT_THROW(space.encode({-2, 0}), std::logic_error);
  // Distinct cells map to distinct indices.
  std::map<std::string, int> seen;
  domain.forEachCell([&](const grid::Coord& cell) {
    ++seen[sfc::toString(space.encode(cell))];
  });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(domain.volume()));
}

class CurveSpaceSweep : public ::testing::TestWithParam<std::tuple<sfc::CurveKind, i64, i64>> {};

TEST_P(CurveSpaceSweep, BijectiveOverNonPowerOfTwoDomains) {
  const auto& [kind, nx, ny] = GetParam();
  const grid::Box domain = grid::Box::fromExtents({-3, 5}, {-3 + nx, 5 + ny});
  const CurveSpace space(kind, domain);
  std::set<std::string> seen;
  domain.forEachCell([&](const grid::Coord& c) {
    const auto idx = space.encode(c);
    EXPECT_TRUE(seen.insert(sfc::toString(idx)).second);
    EXPECT_EQ(space.decode(idx), c);
  });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(domain.volume()));
}

INSTANTIATE_TEST_SUITE_P(
    Domains, CurveSpaceSweep,
    ::testing::Combine(::testing::Values(sfc::CurveKind::kZOrder, sfc::CurveKind::kHilbert,
                                         sfc::CurveKind::kGray),
                       ::testing::Values<i64>(1, 7, 33), ::testing::Values<i64>(5, 16)),
    [](const auto& info) {
      return sfc::curveKindName(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param));
    });

TEST(AggregateRouterTest, SplitsAtPartitionBoundaries) {
  hadoop::Counters counters;
  // 4 partitions with boundaries at 25, 50, 75.
  const auto router = aggregateRangeRouter(CurveCuts({25, 50, 75}), 4, &counters);

  // A range [20, 60) must split into [20,25) [25,50) [50,60).
  Bytes blob(40 * 4, 9);
  auto routed = router(hadoop::KeyValue{serializeAggregateKey({0, 20, 40}), blob}, 4);
  ASSERT_EQ(routed.size(), 3u);
  EXPECT_EQ(routed[0].first, 0);
  EXPECT_EQ(deserializeAggregateKey(routed[0].second.key), (AggregateKey{0, 20, 5}));
  EXPECT_EQ(routed[1].first, 1);
  EXPECT_EQ(deserializeAggregateKey(routed[1].second.key), (AggregateKey{0, 25, 25}));
  EXPECT_EQ(routed[2].first, 2);
  EXPECT_EQ(deserializeAggregateKey(routed[2].second.key), (AggregateKey{0, 50, 10}));
  EXPECT_EQ(counters.get(hadoop::counter::kKeySplitsRouting), 2u);

  // Value bytes conserved across the split.
  std::size_t total = 0;
  for (const auto& [p, kv] : routed) total += kv.value.size();
  EXPECT_EQ(total, blob.size());

  // A range inside one partition is not split.
  routed = router(hadoop::KeyValue{serializeAggregateKey({0, 30, 10}), Bytes(40, 1)}, 4);
  ASSERT_EQ(routed.size(), 1u);
  EXPECT_EQ(routed[0].first, 1);
}

TEST(CurveCutsTest, HandPlacedCutsBoundPartitions) {
  const CurveCuts cuts({10, 10, 30});  // partition 1 is empty
  EXPECT_EQ(cuts.partitions(), 4);
  EXPECT_TRUE(cuts.start(0) == 0);
  EXPECT_TRUE(cuts.start(1) == 10);
  EXPECT_TRUE(cuts.start(3) == 30);
  EXPECT_EQ(cuts.partitionOf(0), 0);
  EXPECT_EQ(cuts.partitionOf(9), 0);
  EXPECT_EQ(cuts.partitionOf(10), 2);
  EXPECT_EQ(cuts.partitionOf(29), 2);
  EXPECT_EQ(cuts.partitionOf(30), 3);
  EXPECT_THROW(cuts.start(4), std::logic_error);
  EXPECT_THROW(CurveCuts({5, 3}), std::logic_error);
  EXPECT_EQ(CurveCuts({}).partitions(), 1);

  const CurveSpace space(sfc::CurveKind::kZOrder, grid::Box({0}, {5}));
  EXPECT_THROW(CurveCuts(space, 0), std::logic_error);
}

TEST(RangeRouterTest, RejectsAnotherReducerCount) {
  const auto space =
      std::make_shared<const CurveSpace>(sfc::CurveKind::kZOrder, grid::Box({0, 0}, {10, 10}));
  const CurveCuts cuts(*space, 4);
  const auto simple = simpleRangeRouter(space, cuts);
  const auto aggregate = aggregateRangeRouter(cuts, 4, nullptr);
  const Bytes simpleKey = serializeSimpleKey(SimpleKey{0, "", {3, 7}}, VariableTag::kIndex);
  const Bytes aggregateKey = serializeAggregateKey({0, space->encode(grid::Coord{3, 7}), 1});

  EXPECT_THROW(simple(hadoop::KeyValue{simpleKey, Bytes(4)}, 3), std::logic_error);
  EXPECT_THROW(aggregate(hadoop::KeyValue{aggregateKey, Bytes(4)}, 3), std::logic_error);
  EXPECT_EQ(simple(hadoop::KeyValue{simpleKey, Bytes(4)}, 4).at(0).first,
            aggregate(hadoop::KeyValue{aggregateKey, Bytes(4)}, 4).at(0).first);
}

TEST(RangeRouterTest, SimpleRouterChecksKeyLengthAndDomain) {
  const auto space =
      std::make_shared<const CurveSpace>(sfc::CurveKind::kZOrder, grid::Box({0, 0}, {10, 10}));
  const auto router = simpleRangeRouter(space, CurveCuts(*space, 2));
  Bytes key = serializeSimpleKey(SimpleKey{0, "", {3, 7}}, VariableTag::kIndex);
  key.push_back(0);
  EXPECT_THROW(router(hadoop::KeyValue{key, Bytes(4)}, 2), FormatError);
  key.resize(6);
  EXPECT_THROW(router(hadoop::KeyValue{key, Bytes(4)}, 2), FormatError);
  EXPECT_THROW(router(hadoop::KeyValue{serializeSimpleKey(SimpleKey{0, "", {3, 10}},
                                                          VariableTag::kIndex),
                                       Bytes(4)},
                      2),
               std::logic_error);
}

TEST(CurveCutsTest, BalancesAFull128BitLattice) {
  // 32,769 cells along the first axis need 16 bits in each of 8 dimensions,
  // so curve indices use all 128 bits and the lattice's 2^128 indices do not
  // fit a CurveIndex. The cuts count cells, not indices, so they still
  // balance, and both routers place every cell.
  std::vector<i64> size(8, 1);
  size[0] = 32769;
  const grid::Box domain(grid::Coord(8, 0), size);
  for (const sfc::CurveKind kind : {sfc::CurveKind::kZOrder, sfc::CurveKind::kHilbert,
                                    sfc::CurveKind::kGray, sfc::CurveKind::kRowMajor}) {
    const auto space = std::make_shared<const CurveSpace>(kind, domain);
    ASSERT_EQ(space->curve().dims() * space->curve().bitsPerDim(), 128);
    const CurveCuts cuts(*space, 4);
    const auto simple = simpleRangeRouter(space, cuts);
    const auto aggregate = aggregateRangeRouter(cuts, 4, nullptr);
    std::vector<u64> cells(4);
    u64 disagreements = 0;
    domain.forEachCell([&](const grid::Coord& c) {
      const sfc::CurveIndex index = space->encode(c);
      const int p = cuts.partitionOf(index);
      ++cells[static_cast<std::size_t>(p)];
      const auto bySimple = simple(
          hadoop::KeyValue{serializeSimpleKey(SimpleKey{0, "", c}, VariableTag::kIndex), Bytes(4)},
          4);
      const auto byAggregate =
          aggregate(hadoop::KeyValue{serializeAggregateKey({0, index, 1}), Bytes(4)}, 4);
      if (bySimple.size() != 1 || bySimple[0].first != p || byAggregate.size() != 1 ||
          byAggregate[0].first != p) {
        ++disagreements;
      }
    });
    EXPECT_EQ(disagreements, 0u) << sfc::curveKindName(kind);
    for (const u64 n : cells) {
      EXPECT_TRUE(n == 8192 || n == 8193) << sfc::curveKindName(kind) << ": " << n;
    }
  }
}

TEST(AggregatorTest, CoalescesContiguousRuns) {
  const grid::Box domain({0, 0}, {8, 8});
  const CurveSpace space(sfc::CurveKind::kRowMajor, domain);  // row-major: easy to reason about
  std::vector<hadoop::KeyValue> emitted;
  {
    AggregatorConfig config;
    config.value_size = 4;
    Aggregator agg(space, config, [&](Bytes k, Bytes v) {
      emitted.push_back({std::move(k), std::move(v)});
    });
    // Cells (0,0)..(0,5) contiguous under row-major, plus an isolated (3,3).
    for (i64 y = 0; y < 6; ++y) agg.add(0, {0, y}, Bytes{0, 0, 0, static_cast<u8>(y)});
    agg.add(0, {3, 3}, Bytes{1, 1, 1, 1});
  }  // destructor flushes
  ASSERT_EQ(emitted.size(), 2u);
  const AggregateKey run = deserializeAggregateKey(emitted[0].key);
  EXPECT_EQ(run.count, 6u);
  EXPECT_EQ(emitted[0].value.size(), 24u);
  // Values packed in curve order.
  EXPECT_EQ(emitted[0].value[3], 0);
  EXPECT_EQ(emitted[0].value[23], 5);
  EXPECT_EQ(deserializeAggregateKey(emitted[1].key).count, 1u);
}

TEST(AggregatorTest, DuplicateCellsGoToLayers) {
  const grid::Box domain({0}, {16});
  const CurveSpace space(sfc::CurveKind::kRowMajor, domain);
  std::vector<hadoop::KeyValue> emitted;
  {
    AggregatorConfig config;
    config.value_size = 4;
    Aggregator agg(space, config, [&](Bytes k, Bytes v) {
      emitted.push_back({std::move(k), std::move(v)});
    });
    // Cell 4 twice, cells 5,6 once: layer0 = [4,7), layer1 = [4,5).
    agg.add(0, {4}, Bytes{0, 0, 0, 1});
    agg.add(0, {4}, Bytes{0, 0, 0, 2});
    agg.add(0, {5}, Bytes{0, 0, 0, 3});
    agg.add(0, {6}, Bytes{0, 0, 0, 4});
  }
  ASSERT_EQ(emitted.size(), 2u);
  std::multimap<u64, u64> ranges;  // start -> count
  for (const auto& kv : emitted) {
    const auto key = deserializeAggregateKey(kv.key);
    ranges.emplace(static_cast<u64>(key.start), key.count);
  }
  EXPECT_EQ(ranges.count(4), 2u);
  u64 totalCells = 0;
  for (const auto& [s, c] : ranges) totalCells += c;
  EXPECT_EQ(totalCells, 4u);
}

TEST(AggregatorTest, FlushThresholdBoundsMemoryAndBreaksRuns) {
  const grid::Box domain({0}, {1024});
  const CurveSpace space(sfc::CurveKind::kRowMajor, domain);
  hadoop::Counters counters;
  std::vector<hadoop::KeyValue> emitted;
  AggregatorConfig config;
  config.value_size = 4;
  config.flush_threshold_bytes = 256;  // tiny: forces many flushes
  {
    Aggregator agg(space, config, [&](Bytes k, Bytes v) {
      emitted.push_back({std::move(k), std::move(v)});
    }, &counters);
    for (i64 i = 0; i < 500; ++i) agg.add(0, {i}, Bytes{0, 0, 0, 0});
  }
  EXPECT_GT(counters.get(hadoop::counter::kAggregateFlushes), 5u);
  // Flushes fragment what would have been one run ("slightly reduces the
  // effectiveness of aggregation") but never lose cells.
  u64 total = 0;
  for (const auto& kv : emitted) total += deserializeAggregateKey(kv.key).count;
  EXPECT_EQ(total, 500u);
  EXPECT_GT(emitted.size(), 1u);
}

TEST(AggregatorTest, AlignmentCutsRunsAtBoundaries) {
  const grid::Box domain({0}, {64});
  const CurveSpace space(sfc::CurveKind::kRowMajor, domain);
  std::vector<hadoop::KeyValue> emitted;
  AggregatorConfig config;
  config.value_size = 4;
  config.alignment = 8;
  {
    Aggregator agg(space, config, [&](Bytes k, Bytes v) {
      emitted.push_back({std::move(k), std::move(v)});
    });
    for (i64 i = 3; i < 21; ++i) agg.add(0, {i}, Bytes{0, 0, 0, 0});
  }
  // [3,21) cut at 8 and 16: three aggregates.
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(deserializeAggregateKey(emitted[0].key), (AggregateKey{0, 3, 5}));
  EXPECT_EQ(deserializeAggregateKey(emitted[1].key), (AggregateKey{0, 8, 8}));
  EXPECT_EQ(deserializeAggregateKey(emitted[2].key), (AggregateKey{0, 16, 5}));
}

TEST(AggregatorTest, VariablesAggregateIndependently) {
  // Two variables sharing cells must never coalesce into one range.
  const grid::Box domain({0}, {32});
  const CurveSpace space(sfc::CurveKind::kRowMajor, domain);
  std::vector<hadoop::KeyValue> emitted;
  {
    AggregatorConfig config;
    config.value_size = 4;
    Aggregator agg(space, config, [&](Bytes k, Bytes v) {
      emitted.push_back({std::move(k), std::move(v)});
    });
    for (i64 i = 0; i < 8; ++i) {
      agg.add(0, {i}, Bytes{0, 0, 0, static_cast<u8>(i)});
      agg.add(1, {i}, Bytes{1, 0, 0, static_cast<u8>(i)});
    }
  }
  ASSERT_EQ(emitted.size(), 2u);
  const AggregateKey a = deserializeAggregateKey(emitted[0].key);
  const AggregateKey b = deserializeAggregateKey(emitted[1].key);
  EXPECT_EQ(a.var, 0);
  EXPECT_EQ(b.var, 1);
  EXPECT_EQ(a.count, 8u);
  EXPECT_EQ(b.count, 8u);
  // Values stay with their variable.
  EXPECT_EQ(emitted[0].value[0], 0);
  EXPECT_EQ(emitted[1].value[0], 1);
}

TEST(AggregateGrouperTest, VariablesNeverMixInGroups) {
  // Identical ranges on different variables are distinct reduce groups.
  hadoop::Counters counters;
  std::vector<hadoop::KeyValue> records = {
      {serializeAggregateKey({0, 10, 4}), Bytes(16, 1)},
      {serializeAggregateKey({1, 10, 4}), Bytes(16, 2)},
      {serializeAggregateKey({1, 12, 4}), Bytes(16, 3)},  // overlaps var 1 only
  };
  std::sort(records.begin(), records.end(), [](const auto& x, const auto& y) {
    return hadoop::lexicographicLess(x.key, y.key);
  });
  struct Stream final : hadoop::KVStream {
    explicit Stream(std::vector<hadoop::KeyValue> kvs) : records(std::move(kvs)) {}
    std::optional<hadoop::RecordView> next() override {
      if (pos >= records.size()) return std::nullopt;
      const hadoop::KeyValue& kv = records[pos++];
      return hadoop::RecordView{kv.key, kv.value};
    }
    std::vector<hadoop::KeyValue> records;
    std::size_t pos = 0;
  } stream(std::move(records));

  AggregateGrouper grouper(4);
  std::vector<AggregateKey> groups;
  const hadoop::ReduceFn reduce = [&](const Bytes& key, std::vector<Bytes>&,
                                      const hadoop::EmitFn&) {
    groups.push_back(deserializeAggregateKey(key));
  };
  grouper.run(stream, reduce, [](Bytes, Bytes) {}, counters);
  // Var 0 untouched; var 1's pair split at overlap boundaries.
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0], (AggregateKey{0, 10, 4}));
  EXPECT_EQ(groups[1], (AggregateKey{1, 10, 2}));
  EXPECT_EQ(groups[2], (AggregateKey{1, 12, 2}));
  EXPECT_EQ(groups[3], (AggregateKey{1, 14, 2}));
}

/// Feeds records through the grouper and collects (key, layer blobs) groups.
struct VectorStream final : hadoop::KVStream {
  explicit VectorStream(std::vector<hadoop::KeyValue> kvs) : records(std::move(kvs)) {}
  std::optional<hadoop::RecordView> next() override {
    if (pos >= records.size()) return std::nullopt;
    const hadoop::KeyValue& kv = records[pos++];
    return hadoop::RecordView{kv.key, kv.value};
  }
  std::vector<hadoop::KeyValue> records;
  std::size_t pos = 0;
};

std::vector<std::pair<AggregateKey, std::vector<Bytes>>> runGrouper(
    std::vector<hadoop::KeyValue> records, std::size_t valueSize, hadoop::Counters& counters) {
  // Grouper expects (var, start) sorted input, as the engine merge provides.
  std::sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
    return hadoop::lexicographicLess(a.key, b.key);
  });
  VectorStream stream(std::move(records));
  AggregateGrouper grouper(valueSize);
  std::vector<std::pair<AggregateKey, std::vector<Bytes>>> groups;
  const hadoop::ReduceFn reduce = [&](const Bytes& key, std::vector<Bytes>& values,
                                      const hadoop::EmitFn&) {
    groups.emplace_back(deserializeAggregateKey(key), values);
  };
  grouper.run(stream, reduce, [](Bytes, Bytes) {}, counters);
  return groups;
}

Bytes blobOf(u64 count, u8 fill) { return Bytes(static_cast<std::size_t>(count) * 4, fill); }

TEST(AggregateGrouperTest, DisjointKeysPassThrough) {
  hadoop::Counters counters;
  const auto groups = runGrouper(
      {
          {serializeAggregateKey({0, 0, 4}), blobOf(4, 1)},
          {serializeAggregateKey({0, 10, 2}), blobOf(2, 2)},
          {serializeAggregateKey({1, 0, 3}), blobOf(3, 3)},
      },
      4, counters);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(counters.get(hadoop::counter::kKeySplitsOverlap), 0u);
  EXPECT_EQ(groups[0].first, (AggregateKey{0, 0, 4}));
  EXPECT_EQ(groups[0].second.size(), 1u);
}

TEST(AggregateGrouperTest, IdenticalKeysGroupTogether) {
  hadoop::Counters counters;
  const auto groups = runGrouper(
      {
          {serializeAggregateKey({0, 5, 3}), blobOf(3, 1)},
          {serializeAggregateKey({0, 5, 3}), blobOf(3, 2)},
          {serializeAggregateKey({0, 5, 3}), blobOf(3, 3)},
      },
      4, counters);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].second.size(), 3u);
  EXPECT_EQ(counters.get(hadoop::counter::kKeySplitsOverlap), 0u);
}

TEST(AggregateGrouperTest, PartialOverlapSplitsAtBoundaries) {
  // Fig. 7: [0,6) and [4,10) -> fragments [0,4) [4,6)x2 [6,10).
  hadoop::Counters counters;
  Bytes a;
  for (u8 i = 0; i < 24; ++i) a.push_back(i);
  Bytes b;
  for (u8 i = 100; i < 124; ++i) b.push_back(i);
  const auto groups = runGrouper(
      {
          {serializeAggregateKey({0, 0, 6}), a},
          {serializeAggregateKey({0, 4, 6}), b},
      },
      4, counters);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_GT(counters.get(hadoop::counter::kKeySplitsOverlap), 0u);

  EXPECT_EQ(groups[0].first, (AggregateKey{0, 0, 4}));
  ASSERT_EQ(groups[0].second.size(), 1u);
  EXPECT_EQ(groups[0].second[0], Bytes(a.begin(), a.begin() + 16));

  EXPECT_EQ(groups[1].first, (AggregateKey{0, 4, 2}));
  ASSERT_EQ(groups[1].second.size(), 2u);  // one slice from each input

  EXPECT_EQ(groups[2].first, (AggregateKey{0, 6, 4}));
  ASSERT_EQ(groups[2].second.size(), 1u);
  EXPECT_EQ(groups[2].second[0], Bytes(b.begin() + 8, b.end()));
}

TEST(AggregateGrouperTest, NestedAndSharedStartOverlaps) {
  // [0,10) vs [2,4): nested. Plus [2,4) duplicated, and [0,2) sharing start.
  hadoop::Counters counters;
  const auto groups = runGrouper(
      {
          {serializeAggregateKey({0, 0, 10}), blobOf(10, 1)},
          {serializeAggregateKey({0, 2, 2}), blobOf(2, 2)},
          {serializeAggregateKey({0, 2, 2}), blobOf(2, 3)},
          {serializeAggregateKey({0, 0, 2}), blobOf(2, 4)},
      },
      4, counters);
  // Expected fragments: [0,2)x2, [2,4)x3, [4,10)x1.
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].first, (AggregateKey{0, 0, 2}));
  EXPECT_EQ(groups[0].second.size(), 2u);
  EXPECT_EQ(groups[1].first, (AggregateKey{0, 2, 2}));
  EXPECT_EQ(groups[1].second.size(), 3u);
  EXPECT_EQ(groups[2].first, (AggregateKey{0, 4, 6}));
  EXPECT_EQ(groups[2].second.size(), 1u);
}

TEST(AggregateGrouperTest, CellCoverageIsConservedUnderRandomOverlaps) {
  // Property: for random overlapping inputs, per-cell multiplicity before ==
  // after, groups are disjoint, and every group's layers cover its range.
  std::mt19937 rng(7);
  std::uniform_int_distribution<u64> startDist(0, 60);
  std::uniform_int_distribution<u64> lenDist(1, 12);
  std::vector<hadoop::KeyValue> records;
  std::map<u64, int> expected;
  for (int i = 0; i < 40; ++i) {
    const u64 start = startDist(rng);
    const u64 len = lenDist(rng);
    for (u64 c = start; c < start + len; ++c) ++expected[c];
    records.push_back({serializeAggregateKey({0, start, len}), blobOf(len, static_cast<u8>(i))});
  }
  hadoop::Counters counters;
  const auto groups = runGrouper(std::move(records), 4, counters);

  std::map<u64, int> actual;
  u64 lastEnd = 0;
  for (const auto& [key, layers] : groups) {
    EXPECT_GE(static_cast<u64>(key.start), lastEnd) << "groups must be disjoint and ordered";
    lastEnd = static_cast<u64>(key.end());
    for (const auto& blob : layers) {
      ASSERT_EQ(blob.size(), key.count * 4);
      for (u64 c = 0; c < key.count; ++c) ++actual[static_cast<u64>(key.start) + c];
    }
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace scishuffle::scikey
