// Fixture: byteSubtractFrom was deleted but its kernel-table row was not, so
// the check must report exactly that row.
#pragma once

#define SCISHUFFLE_SIMD_KERNEL(kernel, scalarRef) static_assert(true, "")

inline int byteSumScalar(const unsigned char* p, int n) {
  int s = 0;
  for (int i = 0; i < n; ++i) s += p[i];
  return s;
}
inline int byteSum(const unsigned char* p, int n) { return byteSumScalar(p, n); }
SCISHUFFLE_SIMD_KERNEL(byteSum, byteSumScalar);
