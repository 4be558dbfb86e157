#include <gtest/gtest.h>

#include <cmath>

#include "grid/box.h"
#include "grid/dataset.h"
#include "grid/shape.h"

namespace scishuffle::grid {
namespace {

TEST(ShapeTest, VolumeAndStrides) {
  const Shape s({4, 5, 6});
  EXPECT_EQ(s.volume(), 120);
  EXPECT_EQ(s.rowMajorStrides(), (std::vector<i64>{30, 6, 1}));
}

TEST(ShapeTest, LinearizeRoundTrip) {
  const Shape s({3, 7, 2, 5});
  for (i64 off = 0; off < s.volume(); ++off) {
    const Coord c = s.delinearize(off);
    EXPECT_EQ(s.linearize(c), off);
  }
}

TEST(ShapeTest, OutOfBoundsThrows) {
  const Shape s({3, 3});
  EXPECT_THROW(s.linearize({3, 0}), std::logic_error);
  EXPECT_THROW(s.linearize({0, -1}), std::logic_error);
  EXPECT_THROW(s.delinearize(9), std::logic_error);
}

TEST(BoxTest, BasicGeometry) {
  const Box b({-2, 3}, {4, 5});
  EXPECT_EQ(b.volume(), 20);
  EXPECT_EQ(b.low(0), -2);
  EXPECT_EQ(b.high(0), 2);
  EXPECT_TRUE(b.contains({-2, 3}));
  EXPECT_TRUE(b.contains({1, 7}));
  EXPECT_FALSE(b.contains({2, 3}));
  EXPECT_FALSE(b.contains({0, 8}));
}

TEST(BoxTest, SplitAtPartitionsVolume) {
  const Box b({0, 0}, {10, 10});
  const auto [lo, hi] = b.splitAt(0, 4);
  EXPECT_EQ(lo.volume() + hi.volume(), b.volume());
  EXPECT_EQ(lo, Box({0, 0}, {4, 10}));
  EXPECT_EQ(hi, Box({4, 0}, {6, 10}));
  // Out-of-range positions clamp to an empty side.
  const auto [lo2, hi2] = b.splitAt(1, 99);
  EXPECT_EQ(lo2.volume(), 100);
  EXPECT_TRUE(hi2.empty());
}

TEST(BoxTest, ForEachCellIsRowMajor) {
  const Box b({1, 1}, {2, 2});
  std::vector<Coord> visited;
  b.forEachCell([&](const Coord& c) { visited.push_back(c); });
  EXPECT_EQ(visited,
            (std::vector<Coord>{{1, 1}, {1, 2}, {2, 1}, {2, 2}}));
}

TEST(DatasetTest, VariablesAndTypes) {
  Dataset ds;
  auto& wind = ds.addVariable("windspeed1", DataType::kFloat32, Shape({8, 8}));
  ds.addVariable("pressure", DataType::kFloat64, Shape({4}));
  EXPECT_THROW(ds.addVariable("windspeed1", DataType::kInt32, Shape({1})), std::logic_error);
  EXPECT_EQ(ds.variableIndex("windspeed1"), 0);
  EXPECT_EQ(ds.variableIndex("pressure"), 1);
  EXPECT_THROW(ds.variableIndex("nope"), std::out_of_range);

  wind.setFloat32({3, 4}, 7.5f);
  EXPECT_EQ(ds.variable("windspeed1").float32At({3, 4}), 7.5f);
  EXPECT_THROW(wind.int32At({0, 0}), std::logic_error);
}

TEST(DatasetTest, SerializedValueIsBigEndian) {
  Dataset ds;
  auto& v = ds.addVariable("v", DataType::kInt32, Shape({2}));
  v.setInt32({1}, 0x01020304);
  const Bytes b = v.serializedValueAt({1});
  EXPECT_EQ(b, (Bytes{1, 2, 3, 4}));
}

TEST(GeneratorTest, LinearFillMatchesOffsets) {
  Dataset ds;
  auto& v = ds.addVariable("v", DataType::kInt32, Shape({5, 7}));
  gen::fillLinear(v);
  EXPECT_EQ(v.int32At({0, 0}), 0);
  EXPECT_EQ(v.int32At({2, 3}), 2 * 7 + 3);
}

TEST(GeneratorTest, WindspeedIsSmoothAndDeterministic) {
  Dataset ds;
  auto& a = ds.addVariable("a", DataType::kFloat32, Shape({32, 32}));
  auto& b = ds.addVariable("b", DataType::kFloat32, Shape({32, 32}));
  gen::fillWindspeed(a, 7);
  gen::fillWindspeed(b, 7);
  EXPECT_EQ(a.raw(), b.raw());
  // Neighboring cells differ by a bounded amount (smoothness).
  for (i64 x = 0; x < 32; ++x) {
    for (i64 y = 1; y < 32; ++y) {
      EXPECT_LT(std::abs(a.float32At({x, y}) - a.float32At({x, y - 1})), 1.5f);
    }
  }
}

}  // namespace
}  // namespace scishuffle::grid
