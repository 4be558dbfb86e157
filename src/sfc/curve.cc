#include "sfc/curve.h"

#include <stdexcept>

#include "sfc/gray.h"
#include "sfc/hilbert.h"
#include "sfc/row_major.h"
#include "sfc/zorder.h"

namespace scishuffle::sfc {

Curve::Curve(int dims, int bitsPerDim) : dims_(dims), bits_(bitsPerDim) {
  check(dims >= 1 && dims <= kMaxDims, "dims must be in [1,8]");
  check(bitsPerDim >= 1 && bitsPerDim <= 32, "bitsPerDim must be in [1,32]");
  check(dims * bitsPerDim <= 128, "index exceeds 128 bits");
}

std::string toString(CurveIndex v) {
  if (v == 0) return "0";
  std::string out;
  while (v > 0) {
    out.insert(out.begin(), static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  return out;
}

std::unique_ptr<Curve> makeCurve(CurveKind kind, int dims, int bitsPerDim) {
  switch (kind) {
    case CurveKind::kZOrder:
      return std::make_unique<ZOrderCurve>(dims, bitsPerDim);
    case CurveKind::kHilbert:
      return std::make_unique<HilbertCurve>(dims, bitsPerDim);
    case CurveKind::kGray:
      return std::make_unique<GrayCurve>(dims, bitsPerDim);
    case CurveKind::kRowMajor:
      return std::make_unique<RowMajorCurve>(dims, bitsPerDim);
  }
  throw std::logic_error("unreachable curve kind");
}

CurveKind curveKindFromName(const std::string& name) {
  if (name == "zorder") return CurveKind::kZOrder;
  if (name == "hilbert") return CurveKind::kHilbert;
  if (name == "gray") return CurveKind::kGray;
  if (name == "rowmajor") return CurveKind::kRowMajor;
  throw std::out_of_range("unknown curve: " + name);
}

std::string curveKindName(CurveKind kind) {
  switch (kind) {
    case CurveKind::kZOrder:
      return "zorder";
    case CurveKind::kHilbert:
      return "hilbert";
    case CurveKind::kGray:
      return "gray";
    case CurveKind::kRowMajor:
      return "rowmajor";
  }
  throw std::logic_error("unreachable curve kind");
}

}  // namespace scishuffle::sfc
