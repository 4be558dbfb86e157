// Randomized property sweep (seeded via SCISHUFFLE_PROP_SEED, see
// tests/proptest.h): codec round-trip laws over adversarial byte streams,
// single-bit-flip fuzzing of the SBF1 container, split-then-merge identity
// for aggregate keys over random Z-order range sets and random cuts, and
// equal-cell balance of curve cuts over random boxes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "compress/block_format.h"
#include "compress/codec.h"
#include "proptest.h"
#include "scikey/aggregate_key.h"
#include "scikey/curve_space.h"
#include "sfc/zorder.h"
#include "testing_support.h"
#include "transform/transform_codec.h"

namespace scishuffle {
namespace {

using scishuffle::testing::adversarialBytes;
using scishuffle::testing::forAll;
using scishuffle::testing::propertySeed;

std::vector<std::string> allCodecNames() {
  registerBuiltinCodecs();
  registerTransformCodecs();
  return CodecRegistry::instance().names();
}

TEST(CodecPropertyTest, RoundTripLawHoldsForEveryRegisteredCodec) {
  for (const std::string& name : allCodecNames()) {
    const auto codec = CodecRegistry::instance().create(name);
    forAll("codec-roundtrip:" + name, propertySeed(), 30,
           [](std::mt19937_64& rng) { return adversarialBytes(rng); },
           [&](const Bytes& input) {
             return codec->decompress(codec->compress(input)) == input;
           });
  }
}

TEST(CodecPropertyTest, BlockContainerRoundTripsWithTinyBlocks) {
  // Small blocks force multi-block streams, exercising frame boundaries and
  // the v2 trailer on every input.
  for (const std::string& name : allCodecNames()) {
    const auto codec = CodecRegistry::instance().create(name);
    forAll("sbf1-roundtrip:" + name, propertySeed() ^ 0x5bf1, 20,
           [](std::mt19937_64& rng) { return adversarialBytes(rng, 2048); },
           [&](const Bytes& input) {
             const Bytes stream = blockCompress(input, codec.get(), /*blockBytes=*/181);
             return blockDecompressAll(stream, codec.get()) == input;
           });
  }
}

TEST(CodecPropertyTest, SingleBitFlipIsDetectedOrRoundTrips) {
  // Flip one bit anywhere in an SBF1 stream: the reader must either throw
  // FormatError or still decode to the original bytes — never silently
  // return different data. (CRC32 catches payload flips; the v2 trailer
  // catches forged end markers; header flips fail structurally.)
  registerBuiltinCodecs();
  for (const std::string& name : {std::string("null"), std::string("gzipish"),
                                  std::string("bzip2ish")}) {
    const auto codec = CodecRegistry::instance().create(name);
    std::mt19937_64 rng(propertySeed() ^ 0xf11b);
    for (int iter = 0; iter < 8; ++iter) {
      const Bytes input = adversarialBytes(rng, 1024);
      const Bytes stream = blockCompress(input, codec.get(), /*blockBytes=*/97);
      std::uniform_int_distribution<std::size_t> pickPos(0, stream.size() - 1);
      std::uniform_int_distribution<int> pickBit(0, 7);
      for (int flip = 0; flip < 48; ++flip) {
        const std::size_t pos = pickPos(rng);
        const int bit = pickBit(rng);
        Bytes mutated = stream;
        mutated[pos] ^= static_cast<u8>(1u << bit);
        try {
          const Bytes decoded = blockDecompressAll(mutated, codec.get());
          EXPECT_EQ(decoded, input)
              << "codec " << name << ": flip of bit " << bit << " at byte " << pos
              << " of " << stream.size() << " went undetected AND changed the data"
              << " (seed " << (propertySeed() ^ 0xf11b) << ")";
        } catch (const FormatError&) {
          // Detected — the acceptable outcome.
        }
      }
    }
  }
}

TEST(CodecPropertyTest, TruncationAtEveryPointIsDetected) {
  registerBuiltinCodecs();
  const auto codec = CodecRegistry::instance().create("gzipish");
  std::mt19937_64 rng(propertySeed() ^ 0x7276);
  const Bytes input = scishuffle::testing::randomBytes(600, static_cast<u32>(rng()));
  const Bytes stream = blockCompress(input, codec.get(), /*blockBytes=*/128);
  // Every proper prefix must fail loudly: with the v2 trailer there is no
  // cut point that still looks like a complete stream.
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    const Bytes prefix(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(blockDecompressAll(prefix, codec.get()), FormatError) << "cut " << cut;
  }
}

// ---------------------------------------------------------------------------
// Aggregate-key splitting over random Z-order range sets.

struct RangeSet {
  sfc::CurveIndex index_count = 0;
  std::size_t value_size = 0;
  // (key, packed blob) records, blob filled with position-dependent bytes so
  // any misrouted cell shows up as a byte mismatch.
  std::vector<std::pair<scikey::AggregateKey, Bytes>> records;
};

RangeSet randomZOrderRanges(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> bits(2, 5);
  std::uniform_int_distribution<int> dims(1, 3);
  const sfc::ZOrderCurve curve(dims(rng), bits(rng));
  RangeSet set;
  set.index_count = sfc::CurveIndex{1} << (curve.dims() * curve.bitsPerDim());  // <= 15 bits
  set.value_size = 1 + rng() % 6;

  std::uniform_int_distribution<int> howMany(1, 8);
  const int n = howMany(rng);
  for (int i = 0; i < n; ++i) {
    const u64 maxStart = static_cast<u64>(set.index_count) - 1;
    const u64 start = rng() % (maxStart + 1);
    const u64 maxCount = static_cast<u64>(set.index_count) - start;
    const u64 count = 1 + rng() % maxCount;
    scikey::AggregateKey key{static_cast<i32>(rng() % 4), start, count};
    Bytes blob(static_cast<std::size_t>(count) * set.value_size);
    for (std::size_t b = 0; b < blob.size(); ++b) {
      blob[b] = static_cast<u8>((start * set.value_size + b) & 0xff);
    }
    set.records.emplace_back(key, std::move(blob));
  }
  return set;
}

TEST(KeySplitPropertyTest, SplitThenConcatenateIsIdentity) {
  std::mt19937_64 rng(propertySeed() ^ 0x5e17);
  for (int iter = 0; iter < 200; ++iter) {
    const RangeSet set = randomZOrderRanges(rng);
    for (const auto& [key, blob] : set.records) {
      if (key.count < 2) continue;  // nothing to split
      const sfc::CurveIndex at = key.start + 1 + rng() % (key.count - 1);
      const auto [left, right] = scikey::splitAggregateRecord(key, blob, at, set.value_size);
      const auto leftKey = scikey::deserializeAggregateKey(left.key);
      const auto rightKey = scikey::deserializeAggregateKey(right.key);

      // The halves tile the original range exactly...
      EXPECT_EQ(leftKey.var, key.var);
      EXPECT_EQ(rightKey.var, key.var);
      EXPECT_TRUE(leftKey.start == key.start);
      EXPECT_TRUE(leftKey.end() == at);
      EXPECT_TRUE(rightKey.start == at);
      EXPECT_TRUE(rightKey.end() == key.end());
      EXPECT_EQ(leftKey.count + rightKey.count, key.count);

      // ...and merging (concatenating the blobs) restores the original.
      Bytes merged = left.value;
      merged.insert(merged.end(), right.value.begin(), right.value.end());
      EXPECT_EQ(merged, blob);
      EXPECT_EQ(left.value.size(), static_cast<std::size_t>(leftKey.count) * set.value_size);
    }
  }
}

/// P - 1 non-decreasing cuts anywhere in [0, latticeSize], repeats allowed
/// (empty partitions), for P in 1..7.
scikey::CurveCuts randomCuts(std::mt19937_64& rng, sfc::CurveIndex latticeSize) {
  std::vector<sfc::CurveIndex> cuts(rng() % 7);
  for (auto& cut : cuts) cut = rng() % (static_cast<u64>(latticeSize) + 1);
  std::sort(cuts.begin(), cuts.end());
  return scikey::CurveCuts(std::move(cuts));
}

TEST(KeySplitPropertyTest, RouterSplitThenMergeIsIdentity) {
  std::mt19937_64 rng(propertySeed() ^ 0x2077);
  for (int iter = 0; iter < 150; ++iter) {
    const RangeSet set = randomZOrderRanges(rng);
    const scikey::CurveCuts cuts = randomCuts(rng, set.index_count);
    const int numPartitions = cuts.partitions();
    const auto router = scikey::aggregateRangeRouter(cuts, set.value_size, nullptr);

    for (const auto& [key, blob] : set.records) {
      auto routed = router(hadoop::KeyValue{scikey::serializeAggregateKey(key), blob},
                           numPartitions);
      ASSERT_FALSE(routed.empty());

      // Pieces arrive in curve order and tile [start, end) with no gap,
      // overlap, or partition straddle; concatenation restores the record.
      sfc::CurveIndex cursor = key.start;
      Bytes merged;
      int prevPartition = -1;
      for (const auto& [partition, kv] : routed) {
        const auto piece = scikey::deserializeAggregateKey(kv.key);
        EXPECT_EQ(piece.var, key.var);
        EXPECT_TRUE(piece.start == cursor) << "gap or overlap at piece boundary";
        EXPECT_GE(piece.count, 1u);
        EXPECT_GT(partition, prevPartition);  // one piece per partition, in order
        prevPartition = partition;
        EXPECT_TRUE(cuts.start(partition) <= piece.start);
        EXPECT_EQ(cuts.partitionOf(piece.start), partition);
        EXPECT_EQ(cuts.partitionOf(piece.end() - 1), partition)
            << "piece straddles a partition boundary";
        EXPECT_EQ(kv.value.size(), static_cast<std::size_t>(piece.count) * set.value_size);
        merged.insert(merged.end(), kv.value.begin(), kv.value.end());
        cursor = piece.end();
      }
      EXPECT_TRUE(cursor == key.end()) << "pieces do not cover the range";
      EXPECT_EQ(merged, blob);
    }
  }
}

TEST(KeySplitPropertyTest, RouterIsANoOpForSinglePartition) {
  std::mt19937_64 rng(propertySeed() ^ 0x1);
  for (int iter = 0; iter < 50; ++iter) {
    const RangeSet set = randomZOrderRanges(rng);
    const auto router = scikey::aggregateRangeRouter(scikey::CurveCuts({}), set.value_size, nullptr);
    for (const auto& [key, blob] : set.records) {
      auto routed = router(hadoop::KeyValue{scikey::serializeAggregateKey(key), blob}, 1);
      ASSERT_EQ(routed.size(), 1u);
      EXPECT_EQ(routed[0].first, 0);
      EXPECT_EQ(scikey::deserializeAggregateKey(routed[0].second.key), key);
      EXPECT_EQ(routed[0].second.value, blob);
    }
  }
}

// ---------------------------------------------------------------------------
// Equal-cell curve cuts over random boxes.

TEST(CurveCutsPropertyTest, PartitionsHoldEqualCellSharesOnEveryCurve) {
  std::mt19937_64 rng(propertySeed() ^ 0xc075);
  for (const sfc::CurveKind kind : {sfc::CurveKind::kZOrder, sfc::CurveKind::kHilbert,
                                    sfc::CurveKind::kGray, sfc::CurveKind::kRowMajor}) {
    for (int iter = 0; iter < 40; ++iter) {
      const auto rank = static_cast<std::size_t>(1 + rng() % 3);
      grid::Coord corner(rank);
      std::vector<i64> size(rank);
      for (std::size_t d = 0; d < rank; ++d) {
        corner[d] = -static_cast<i64>(rng() % 40);
        size[d] = 1 + static_cast<i64>(rng() % 13);
      }
      const grid::Box domain(corner, size);
      const scikey::CurveSpace space(kind, domain);
      const int partitions = 1 + static_cast<int>(rng() % 7);
      const scikey::CurveCuts cuts(space, partitions);
      ASSERT_EQ(cuts.partitions(), partitions);

      std::vector<sfc::CurveIndex> indices;
      domain.forEachCell([&](const grid::Coord& c) { indices.push_back(space.encode(c)); });
      std::sort(indices.begin(), indices.end());
      std::vector<i64> cells(static_cast<std::size_t>(partitions));
      int previous = 0;
      for (const sfc::CurveIndex index : indices) {
        const int p = cuts.partitionOf(index);
        EXPECT_GE(p, previous) << "partitionOf decreased along the curve";
        previous = p;
        ++cells[static_cast<std::size_t>(p)];
      }
      const auto [fewest, most] = std::minmax_element(cells.begin(), cells.end());
      const i64 volume = domain.volume();
      EXPECT_EQ(*fewest, volume / partitions)
          << sfc::curveKindName(kind) << " " << domain.toString() << " / " << partitions;
      EXPECT_EQ(*most, (volume + partitions - 1) / partitions)
          << sfc::curveKindName(kind) << " " << domain.toString() << " / " << partitions;
    }
  }
}

}  // namespace
}  // namespace scishuffle
