#include "scikey/curve_space.h"

#include <algorithm>
#include <array>

namespace scishuffle::scikey {

CurveSpace::CurveSpace(sfc::CurveKind kind, const grid::Box& domain) : domain_(domain) {
  check(domain.rank() >= 1, "empty domain");
  i64 maxExtent = 1;
  for (int d = 0; d < domain.rank(); ++d) {
    maxExtent = std::max(maxExtent, domain.size()[static_cast<std::size_t>(d)]);
  }
  int bits = 1;
  while ((i64{1} << bits) < maxExtent) ++bits;
  curve_ = sfc::makeCurve(kind, domain.rank(), bits);
}

// Lattice coordinates live on the stack: Curve's constructor caps dims at
// kMaxDims, and these run once per cell on the aggregation and routing paths.
sfc::CurveIndex CurveSpace::encode(std::span<const i64> c) const {
  check(static_cast<int>(c.size()) == domain_.rank(), "coordinate rank mismatch");
  std::array<u32, sfc::Curve::kMaxDims> lattice{};
  for (std::size_t d = 0; d < c.size(); ++d) {
    const i64 offset = c[d] - domain_.corner()[d];
    check(offset >= 0 && offset < domain_.size()[d], "coordinate outside curve domain");
    lattice[d] = static_cast<u32>(offset);
  }
  return curve_->encode(std::span<const u32>(lattice.data(), c.size()));
}

grid::Coord CurveSpace::decode(sfc::CurveIndex index) const {
  const auto rank = static_cast<std::size_t>(domain_.rank());
  std::array<u32, sfc::Curve::kMaxDims> lattice{};
  curve_->decode(index, std::span<u32>(lattice.data(), rank));
  grid::Coord c(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    c[d] = static_cast<i64>(lattice[d]) + domain_.corner()[d];
  }
  return c;
}

CurveCuts::CurveCuts(const CurveSpace& space, int partitions) {
  check(partitions >= 1, "need at least one partition");
  std::vector<sfc::CurveIndex> indices;
  indices.reserve(static_cast<std::size_t>(space.domain().volume()));
  space.domain().forEachCell([&](const grid::Coord& c) { indices.push_back(space.encode(c)); });
  if (indices.empty()) {
    cuts_.assign(static_cast<std::size_t>(partitions - 1), 0);
    return;
  }
  // Successive selections on shrinking suffixes: each leaves every smaller
  // index in front of the rank it places, so the next one searches only
  // what lies behind.
  cuts_.reserve(static_cast<std::size_t>(partitions - 1));
  auto from = indices.begin();
  for (int p = 1; p < partitions; ++p) {
    const auto rank = indices.begin() + static_cast<std::ptrdiff_t>(
                                            indices.size() * static_cast<std::size_t>(p) /
                                            static_cast<std::size_t>(partitions));
    std::nth_element(from, rank, indices.end());
    cuts_.push_back(*rank);
    from = rank;
  }
}

CurveCuts::CurveCuts(std::vector<sfc::CurveIndex> cuts) : cuts_(std::move(cuts)) {
  check(std::is_sorted(cuts_.begin(), cuts_.end()), "curve cuts must not decrease");
}

int CurveCuts::partitionOf(sfc::CurveIndex index) const {
  return static_cast<int>(std::upper_bound(cuts_.begin(), cuts_.end(), index) - cuts_.begin());
}

sfc::CurveIndex CurveCuts::start(int p) const {
  check(p >= 0 && p < partitions(), "partition out of range");
  return p == 0 ? 0 : cuts_[static_cast<std::size_t>(p - 1)];
}

}  // namespace scishuffle::scikey
