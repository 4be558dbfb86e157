#include "scikey/curve_space.h"

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
sfc::CurveIndex CurveSpace::encode(const grid::Coord& c) const {
  check(domain_.contains(c), "coordinate outside curve domain");
  std::array<u32, sfc::Curve::kMaxDims> lattice{};
  for (std::size_t d = 0; d < c.size(); ++d) {
    lattice[d] = static_cast<u32>(c[d] - domain_.corner()[d]);
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

}  // namespace scishuffle::scikey
