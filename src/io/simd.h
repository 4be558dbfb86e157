// Portable SIMD kernel layer (see docs/PERFORMANCE.md).
//
// One backend is selected at compile time — SSE2 on x86-64, NEON on ARM,
// plain scalar everywhere else — and every kernel here comes in two forms:
// the dispatched fast version and a `*Scalar` reference implementation that
// is the semantic ground truth. The fast version must be byte-for-byte
// equivalent to its reference on every input (tests/simd_test.cc proves this
// property over random and adversarial inputs), so callers can use either
// interchangeably and the benchmarks can report the speedup honestly.
//
// Kernels register themselves with SCISHUFFLE_SIMD_KERNEL(kernel, scalarRef)
// immediately after their definition; tools/lint checks that every
// registered kernel names a scalar reference living in the same file and is
// documented in docs/PERFORMANCE.md.
#pragma once

#include <bit>
#include <cstring>

#include "io/common.h"

#if defined(__SSE2__) || defined(_M_X64) || (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define SCISHUFFLE_SIMD_BACKEND_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__) || defined(__aarch64__)
#define SCISHUFFLE_SIMD_BACKEND_NEON 1
#include <arm_neon.h>
#else
#define SCISHUFFLE_SIMD_BACKEND_SCALAR 1
#endif

// Word-at-a-time (SWAR) tricks assume little-endian byte order; on big-endian
// targets those kernels silently dispatch to their scalar references.
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
#define SCISHUFFLE_SIMD_LITTLE_ENDIAN 1
#else
#define SCISHUFFLE_SIMD_LITTLE_ENDIAN 0
#endif

/// Registers a dispatched kernel with its scalar reference. Expands to a
/// compile-time no-op; the pairing is a lintable contract, not code — the
/// reference must be defined in the same file and the kernel documented in
/// docs/PERFORMANCE.md (enforced by tools/lint's simd-kernels check).
#define SCISHUFFLE_SIMD_KERNEL(kernel, scalarRef)                        \
  static_assert(sizeof(#kernel) > 1 && sizeof(#scalarRef) > 1,           \
                "SIMD kernel registration needs kernel and scalar names")

namespace scishuffle::simd {

/// Name of the backend compiled in ("sse2", "neon", or "scalar"); reported
/// by bench_codec so BENCH_codec.json records what was measured.
inline constexpr const char* kBackendName =
#if defined(SCISHUFFLE_SIMD_BACKEND_SSE2)
    "sse2";
#elif defined(SCISHUFFLE_SIMD_BACKEND_NEON)
    "neon";
#else
    "scalar";
#endif

inline u32 load32le(const u8* p) {
  u32 v;
  std::memcpy(&v, p, sizeof(v));
#if !SCISHUFFLE_SIMD_LITTLE_ENDIAN
  v = ((v & 0xFF000000u) >> 24) | ((v & 0x00FF0000u) >> 8) | ((v & 0x0000FF00u) << 8) |
      ((v & 0x000000FFu) << 24);
#endif
  return v;
}

inline u64 load64(const u8* p) {
  u64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// ----------------------------------------------------------- matchLength

/// Reference: length of the common prefix of a and b, capped at maxLen.
inline std::size_t matchLengthScalar(const u8* a, const u8* b, std::size_t maxLen) {
  std::size_t n = 0;
  while (n < maxLen && a[n] == b[n]) ++n;
  return n;
}

/// Word-at-a-time common-prefix length: 8-byte loads, XOR, and
/// count-trailing-zeros locate the first mismatching byte without a
/// byte-by-byte loop. The hot call site is lz77's match extender.
inline std::size_t matchLength(const u8* a, const u8* b, std::size_t maxLen) {
#if SCISHUFFLE_SIMD_LITTLE_ENDIAN
  std::size_t n = 0;
  while (n + sizeof(u64) <= maxLen) {
    const u64 x = load64(a + n) ^ load64(b + n);
    if (x != 0) {
      return n + static_cast<std::size_t>(std::countr_zero(x)) / 8;
    }
    n += sizeof(u64);
  }
  while (n < maxLen && a[n] == b[n]) ++n;
  return n;
#else
  return matchLengthScalar(a, b, maxLen);
#endif
}
SCISHUFFLE_SIMD_KERNEL(matchLength, matchLengthScalar);

}  // namespace scishuffle::simd
