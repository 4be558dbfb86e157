#include "grid/box.h"

#include <algorithm>
#include <sstream>

namespace scishuffle::grid {

Box::Box(Coord corner, std::vector<i64> size) : corner_(std::move(corner)), size_(std::move(size)) {
  check(corner_.size() == size_.size(), "corner/size rank mismatch");
  for (const i64 s : size_) check(s >= 0, "negative box size");
}

Box Box::fromExtents(const Coord& low, const Coord& highExclusive) {
  check(low.size() == highExclusive.size(), "extent rank mismatch");
  std::vector<i64> size(low.size());
  for (std::size_t d = 0; d < low.size(); ++d) {
    check(highExclusive[d] >= low[d], "inverted extents");
    size[d] = highExclusive[d] - low[d];
  }
  return Box(low, std::move(size));
}

Box Box::cell(const Coord& c) { return Box(c, std::vector<i64>(c.size(), 1)); }

i64 Box::volume() const {
  i64 v = 1;
  for (const i64 s : size_) v *= s;
  return v;
}

bool Box::contains(const Coord& c) const {
  check(static_cast<int>(c.size()) == rank(), "coordinate rank mismatch");
  for (int d = 0; d < rank(); ++d) {
    if (c[static_cast<std::size_t>(d)] < low(d) || c[static_cast<std::size_t>(d)] >= high(d)) {
      return false;
    }
  }
  return true;
}

bool Box::containsBox(const Box& other) const {
  check(rank() == other.rank(), "box rank mismatch");
  if (other.empty()) return true;
  for (int d = 0; d < rank(); ++d) {
    if (other.low(d) < low(d) || other.high(d) > high(d)) return false;
  }
  return true;
}

std::pair<Box, Box> Box::splitAt(int axis, i64 pos) const {
  const i64 clamped = std::clamp(pos, low(axis), high(axis));
  Coord lowCorner = corner_;
  std::vector<i64> lowSize = size_;
  lowSize[static_cast<std::size_t>(axis)] = clamped - low(axis);
  Coord highCorner = corner_;
  highCorner[static_cast<std::size_t>(axis)] = clamped;
  std::vector<i64> highSize = size_;
  highSize[static_cast<std::size_t>(axis)] = high(axis) - clamped;
  return {Box(std::move(lowCorner), std::move(lowSize)),
          Box(std::move(highCorner), std::move(highSize))};
}

std::string Box::toString() const {
  std::ostringstream os;
  os << coordToString(corner_) << "+" << coordToString(size_);
  return os.str();
}

}  // namespace scishuffle::grid
