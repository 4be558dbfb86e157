#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

#include "compress/huffman.h"
#include "io/streams.h"
#include "testing_support.h"

namespace scishuffle::huffman {
namespace {

double kraftSum(const std::vector<u8>& lengths) {
  double sum = 0;
  for (const u8 l : lengths) {
    if (l > 0) sum += std::ldexp(1.0, -static_cast<int>(l));
  }
  return sum;
}

TEST(HuffmanLengths, EmptyAndSingleton) {
  EXPECT_TRUE(codeLengths({}, 15).empty());
  const auto single = codeLengths({0, 7, 0}, 15);
  EXPECT_EQ(single[1], 1);
  EXPECT_EQ(single[0], 0);
  EXPECT_EQ(single[2], 0);
}

TEST(HuffmanLengths, MatchesClassicExample) {
  // Frequencies 1,1,2,4: optimal lengths 3,3,2,1.
  const auto lengths = codeLengths({1, 1, 2, 4}, 15);
  EXPECT_EQ(lengths[0], 3);
  EXPECT_EQ(lengths[1], 3);
  EXPECT_EQ(lengths[2], 2);
  EXPECT_EQ(lengths[3], 1);
}

TEST(HuffmanLengths, LengthLimitIsRespected) {
  // Fibonacci-ish weights force deep trees without a limit.
  std::vector<u64> freqs = {1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987};
  const auto lengths = codeLengths(freqs, 8);
  for (const u8 l : lengths) EXPECT_LE(l, 8);
  EXPECT_LE(kraftSum(lengths), 1.0 + 1e-12);
}

class HuffmanProperty : public ::testing::TestWithParam<u32> {};

TEST_P(HuffmanProperty, KraftEqualityAndDecodability) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> alphabet(2, 300);
  std::uniform_int_distribution<u64> freq(0, 1000);
  const int n = alphabet(rng);
  std::vector<u64> freqs(static_cast<std::size_t>(n));
  for (auto& f : freqs) f = freq(rng);
  freqs[0] = std::max<u64>(freqs[0], 1);
  freqs[static_cast<std::size_t>(n) - 1] = std::max<u64>(freqs[static_cast<std::size_t>(n) - 1], 1);

  const auto lengths = codeLengths(freqs, 15);
  int nonZero = 0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] > 0) {
      EXPECT_GT(lengths[s], 0) << s;
      ++nonZero;
    } else {
      EXPECT_EQ(lengths[s], 0) << s;
    }
  }
  // A complete optimal prefix code on >= 2 symbols saturates Kraft.
  if (nonZero >= 2) EXPECT_NEAR(kraftSum(lengths), 1.0, 1e-9);

  // Encode a stream drawn from the distribution and decode it back.
  std::vector<u32> symbols;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    for (u64 k = 0; k < freqs[s] % 17; ++k) symbols.push_back(static_cast<u32>(s));
  }
  if (symbols.empty() || nonZero < 2) return;
  Bytes buf;
  MemorySink sink(buf);
  BitWriter bw(sink);
  const Encoder enc(lengths);
  for (const u32 s : symbols) enc.encode(bw, s);
  bw.finish();

  BitSpanReader br(buf);
  const Decoder dec(lengths);
  for (const u32 s : symbols) EXPECT_EQ(dec.decode(br), s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanProperty, ::testing::Range(0u, 20u));

TEST(HuffmanLengths, PackageMergeIsOptimalWhenDepthUnconstrained) {
  // With a generous depth limit, package-merge must equal classic Huffman's
  // total cost: sum(freq * length) minimal. Compare against a direct
  // two-queue Huffman construction.
  std::mt19937 rng(99);
  std::uniform_int_distribution<u64> freq(1, 500);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<u64> freqs(64);
    for (auto& f : freqs) f = freq(rng);

    // Reference: classic Huffman total cost via repeated min-merging.
    std::multiset<u64> queue(freqs.begin(), freqs.end());
    u64 optimalCost = 0;
    while (queue.size() > 1) {
      const u64 a = *queue.begin();
      queue.erase(queue.begin());
      const u64 b = *queue.begin();
      queue.erase(queue.begin());
      optimalCost += a + b;
      queue.insert(a + b);
    }

    const auto lengths = codeLengths(freqs, 32);
    u64 cost = 0;
    for (std::size_t s = 0; s < freqs.size(); ++s) cost += freqs[s] * lengths[s];
    EXPECT_EQ(cost, optimalCost) << "trial " << trial;
  }
}

class CompressedLengthsRoundTrip : public ::testing::TestWithParam<u32> {};

TEST_P(CompressedLengthsRoundTrip, RoundTrips) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> size(1, 600);
  std::uniform_int_distribution<int> len(0, 15);
  std::uniform_int_distribution<int> runLen(1, 150);
  std::vector<u8> lengths;
  const int n = size(rng);
  while (static_cast<int>(lengths.size()) < n) {
    const u8 v = static_cast<u8>(len(rng));
    const int run = std::min(runLen(rng), n - static_cast<int>(lengths.size()));
    lengths.insert(lengths.end(), static_cast<std::size_t>(run), v);
  }

  Bytes buf;
  MemorySink sink(buf);
  BitWriter bw(sink);
  writeCompressedLengths(bw, lengths);
  bw.finish();

  BitSpanReader br(buf);
  EXPECT_EQ(readCompressedLengths(br, lengths.size()), lengths);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressedLengthsRoundTrip, ::testing::Range(100u, 120u));

TEST(CompressedLengths, AllZerosStaysTiny) {
  // Degenerate tables (the transform+bzip2ish case) must not pay a big
  // header: 258 zero lengths should occupy only a few bytes.
  std::vector<u8> lengths(258, 0);
  lengths[0] = 1;
  lengths[1] = 1;
  Bytes buf;
  MemorySink sink(buf);
  BitWriter bw(sink);
  writeCompressedLengths(bw, lengths);
  bw.finish();
  EXPECT_LE(buf.size(), 16u);
}

}  // namespace
}  // namespace scishuffle::huffman
