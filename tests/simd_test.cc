// Equivalence proofs for the SIMD kernel layer: every dispatched kernel in
// src/io/simd.h must agree byte-for-byte with its scalar reference on random
// and adversarial inputs (the contract docs/PERFORMANCE.md documents).
#include "io/simd.h"

#include <gtest/gtest.h>

#include "io/crc32.h"
#include "proptest.h"

namespace scishuffle {
namespace {

using testing::adversarialBytes;
using testing::forAll;
using testing::propertySeed;

TEST(SimdMatchLength, KnownPrefixes) {
  const Bytes a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Bytes b = a;
  EXPECT_EQ(simd::matchLength(a.data(), b.data(), a.size()), a.size());
  EXPECT_EQ(simd::matchLength(a.data(), b.data(), 0u), 0u);
  b[0] = 99;
  EXPECT_EQ(simd::matchLength(a.data(), b.data(), a.size()), 0u);
  b = a;
  b[9] = 99;
  EXPECT_EQ(simd::matchLength(a.data(), b.data(), a.size()), 9u);
  b = a;
  b[8] = 99;  // mismatch exactly at the word boundary
  EXPECT_EQ(simd::matchLength(a.data(), b.data(), a.size()), 8u);
}

TEST(SimdMatchLength, EquivalentToScalarOnAdversarialPairs) {
  forAll(
      "matchLength == matchLengthScalar", propertySeed(), 300,
      [](std::mt19937_64& rng) {
        // A pair packed into one vector: first half vs second half, with the
        // second half copied from the first up to a random divergence point
        // so long prefixes (the SWAR fast path) actually occur.
        Bytes buf = adversarialBytes(rng, 2048);
        if (buf.size() < 2) buf.resize(2, 0);
        const std::size_t half = buf.size() / 2;
        const std::size_t diverge = rng() % (half + 1);
        for (std::size_t i = 0; i < diverge; ++i) buf[half + i] = buf[i];
        return buf;
      },
      [](const Bytes& buf) {
        const std::size_t half = buf.size() / 2;
        for (std::size_t maxLen : {std::size_t{0}, half / 2, half}) {
          if (simd::matchLength(buf.data(), buf.data() + half, maxLen) !=
              simd::matchLengthScalar(buf.data(), buf.data() + half, maxLen)) {
            return false;
          }
        }
        return true;
      });
}

TEST(SimdCrc32, SliceBy8MatchesBytewiseReference) {
  forAll(
      "crc32 (slice-by-8) == crc32Reference", propertySeed(), 300,
      [](std::mt19937_64& rng) { return adversarialBytes(rng, 8192); },
      [](const Bytes& data) { return crc32(data) == crc32Reference(data); });
}

TEST(SimdCrc32, IncrementalUpdatesMatchOneShot) {
  forAll(
      "chunked Crc32::update == one-shot", propertySeed(), 100,
      [](std::mt19937_64& rng) { return adversarialBytes(rng, 4096); },
      [](const Bytes& data) {
        Crc32 crc;
        // Uneven chunks keep the slice-by-8 loop entering and leaving its
        // 8-byte alignment in every phase.
        std::size_t pos = 0;
        std::size_t step = 1;
        while (pos < data.size()) {
          const std::size_t take = std::min(step, data.size() - pos);
          crc.update(ByteSpan(data.data() + pos, take));
          pos += take;
          step = step * 2 + 1;
        }
        return crc.value() == crc32Reference(data);
      });
}

TEST(SimdBackend, NamesTheCompiledBackend) {
  const std::string backend = simd::kBackendName;
  EXPECT_TRUE(backend == "sse2" || backend == "neon" || backend == "scalar") << backend;
}

}  // namespace
}  // namespace scishuffle
