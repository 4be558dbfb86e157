// CurveSpace: binds a space-filling curve to a concrete signed-coordinate
// domain. Grid coordinates may be negative (sliding windows, §IV-C), while
// curves index a non-negative power-of-two lattice; the space handles the
// translation and sizes the curve to fit the domain.
//
// CurveCuts: the range partition of §IV-B over such a space. Reducers own
// contiguous curve-index ranges, cut so that each holds an equal share of
// the domain's cells (the lattice around a non-power-of-two domain holds
// cells no job emits, so equal index ranges would not balance).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "grid/box.h"
#include "sfc/curve.h"

namespace scishuffle::scikey {

class CurveSpace {
 public:
  /// Builds a space whose lattice covers `domain` (every coordinate the job
  /// may emit). The curve's bits-per-dim is the smallest power of two fit.
  CurveSpace(sfc::CurveKind kind, const grid::Box& domain);

  /// `c` holds one coordinate per domain dimension and lies in the domain.
  sfc::CurveIndex encode(std::span<const i64> c) const;
  sfc::CurveIndex encode(const grid::Coord& c) const { return encode(std::span<const i64>(c)); }
  grid::Coord decode(sfc::CurveIndex index) const;

  const grid::Box& domain() const { return domain_; }
  const sfc::Curve& curve() const { return *curve_; }

 private:
  grid::Box domain_;
  std::shared_ptr<const sfc::Curve> curve_;
};

/// P contiguous curve-index partitions: partition p holds [start(p),
/// start(p + 1)), the last one everything from start(P - 1) up.
class CurveCuts {
 public:
  /// Equal-cell cuts: encodes every domain cell once and cuts at the indices
  /// of rank ⌊V·p/P⌋ (p = 1..P−1) among the V cells, so each partition holds
  /// ⌊V/P⌋ or ⌈V/P⌉ cells (some hold none when P > V).
  CurveCuts(const CurveSpace& space, int partitions);

  /// Hand-placed cuts: P − 1 non-decreasing indices for P partitions.
  explicit CurveCuts(std::vector<sfc::CurveIndex> cuts);

  int partitions() const { return static_cast<int>(cuts_.size()) + 1; }

  /// The partition holding `index`.
  int partitionOf(sfc::CurveIndex index) const;

  /// First index of partition p (0 for the first).
  sfc::CurveIndex start(int p) const;

 private:
  std::vector<sfc::CurveIndex> cuts_;
};

}  // namespace scishuffle::scikey
