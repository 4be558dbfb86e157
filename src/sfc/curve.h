// Space-filling curves over N-dimensional grids (§IV-A).
//
// Key aggregation reduces the N-dimensional aggregation problem (Fig. 5,
// suspected NP-hard) to one dimension: map every coordinate to its index on
// a curve, then coalesce contiguous index ranges (Fig. 6). The paper uses a
// Z-order curve "due to speed and ease of implementation" and notes Hilbert
// as an alternative with better clustering (Moon et al.); both are here, plus
// row-major as the degenerate baseline.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "io/common.h"

namespace scishuffle::sfc {

/// Curve indices need dims*bits bits, at most 128 (4 dims x 32 bits, or
/// 8 x 16). A 128-bit lattice holds 2^128 indices, one more than a CurveIndex
/// can count, so a curve offers no index count: callers that range over
/// indices cut the cells they use (scikey::CurveCuts).
using CurveIndex = unsigned __int128;

/// Serialization helpers for CurveIndex (big-endian 16 bytes).
std::string toString(CurveIndex v);

/// Bijection between [0,2^bits)^dims coordinates and curve indices.
/// Implementations must be bijective over the full cube; this is tested
/// exhaustively for small cubes and by sampling for large ones.
class Curve {
 public:
  /// Largest `dims` a curve accepts.
  static constexpr int kMaxDims = 8;

  Curve(int dims, int bitsPerDim);
  virtual ~Curve() = default;

  virtual std::string name() const = 0;

  virtual CurveIndex encode(std::span<const u32> coords) const = 0;
  virtual void decode(CurveIndex index, std::span<u32> coords) const = 0;

  int dims() const { return dims_; }
  int bitsPerDim() const { return bits_; }

 protected:
  int dims_;
  int bits_;
};

enum class CurveKind { kZOrder, kHilbert, kGray, kRowMajor };

std::unique_ptr<Curve> makeCurve(CurveKind kind, int dims, int bitsPerDim);

/// Parses "zorder" / "hilbert" / "gray" / "rowmajor" (job-config strings).
CurveKind curveKindFromName(const std::string& name);
std::string curveKindName(CurveKind kind);

}  // namespace scishuffle::sfc
