// Axis-aligned N-dimensional boxes in (corner, size) form: query domains,
// mapper input splits and sliding windows, walked cell by cell. Keys are not
// split as boxes: aggregate keys are curve ranges (§IV), and the router and
// the reduce-side grouper split them on the curve (scikey/aggregate_key.h,
// scikey/aggregate_grouper.h).
#pragma once

#include <string>
#include <vector>

#include "grid/shape.h"

namespace scishuffle::grid {

class Box {
 public:
  Box() = default;
  Box(Coord corner, std::vector<i64> size);

  /// The box covering [corner, corner+size) in every dimension.
  static Box fromExtents(const Coord& low, const Coord& highExclusive);

  /// Unit box containing a single cell.
  static Box cell(const Coord& c);

  int rank() const { return static_cast<int>(corner_.size()); }
  const Coord& corner() const { return corner_; }
  const std::vector<i64>& size() const { return size_; }
  i64 low(int d) const { return corner_[static_cast<std::size_t>(d)]; }
  i64 high(int d) const {
    return corner_[static_cast<std::size_t>(d)] + size_[static_cast<std::size_t>(d)];
  }

  i64 volume() const;
  bool empty() const { return volume() == 0; }

  bool contains(const Coord& c) const;
  bool containsBox(const Box& other) const;

  /// Splits into (cells with coordinate[axis] < pos, the rest). Either part
  /// may be empty if pos is outside the box.
  std::pair<Box, Box> splitAt(int axis, i64 pos) const;

  /// Row-major walk over all cells; f(coord) per cell.
  template <typename F>
  void forEachCell(F&& f) const {
    if (empty()) return;
    Coord c = corner_;
    const i64 cells = volume();
    for (i64 i = 0; i < cells; ++i) {
      f(static_cast<const Coord&>(c));
      for (int d = rank() - 1; d >= 0; --d) {
        auto& x = c[static_cast<std::size_t>(d)];
        if (++x < high(d)) break;
        x = low(d);
      }
    }
  }

  bool operator==(const Box&) const = default;

  std::string toString() const;

 private:
  Coord corner_;
  std::vector<i64> size_;
};

}  // namespace scishuffle::grid
