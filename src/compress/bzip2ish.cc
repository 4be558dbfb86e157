#include "compress/bzip2ish.h"

#include <algorithm>

#include "compress/bwt.h"
#include "compress/huffman.h"
#include "compress/mtf.h"
#include "io/bitio.h"
#include "io/crc32.h"
#include "io/primitives.h"
#include "io/streams.h"

namespace scishuffle {

namespace {

constexpr u32 kMagic = 0x535A4231;  // "SZB1"
constexpr int kMaxCodeBits = 15;

// bzip2's grouping scheme: the symbol stream is cut into groups of 50 and
// each group picks one of up to 6 Huffman tables via a selector. Skewed
// blocks (long zero-run stretches vs literal-heavy stretches) compress
// noticeably better than with one average table.
constexpr std::size_t kGroupSize = 50;
constexpr int kMaxTables = 6;
constexpr int kRefinementIterations = 4;

int tableCountFor(std::size_t symbols) {
  if (symbols < 200) return 1;
  if (symbols < 600) return 2;
  if (symbols < 1200) return 3;
  if (symbols < 2400) return 4;
  if (symbols < 4800) return 5;
  return kMaxTables;
}

/// Cost in bits of encoding `freqs` with a table of given lengths; unseen
/// symbols (length 0) are charged a large penalty so refinement avoids them.
u64 groupCost(const std::vector<u32>& groupSymbols, const std::vector<u8>& lengths) {
  u64 bits = 0;
  for (const u32 s : groupSymbols) {
    bits += lengths[s] == 0 ? 64 : lengths[s];
  }
  return bits;
}

struct TablePlan {
  std::vector<std::vector<u8>> lengths;  // per table
  std::vector<u8> selectors;             // per group
};

/// bzip2-style iterative table refinement.
TablePlan planTables(const std::vector<u32>& symbols, int numTables) {
  const std::size_t numGroups = (symbols.size() + kGroupSize - 1) / kGroupSize;
  TablePlan plan;
  plan.selectors.assign(numGroups, 0);

  auto groupSpan = [&](std::size_t g) {
    const std::size_t lo = g * kGroupSize;
    const std::size_t hi = std::min(symbols.size(), lo + kGroupSize);
    return std::pair{lo, hi};
  };

  // Initial assignment: round-robin groups across tables.
  for (std::size_t g = 0; g < numGroups; ++g) {
    plan.selectors[g] = static_cast<u8>(g % static_cast<std::size_t>(numTables));
  }

  for (int iter = 0; iter < kRefinementIterations; ++iter) {
    // Rebuild each table from the frequencies of its assigned groups.
    std::vector<std::vector<u64>> freqs(static_cast<std::size_t>(numTables),
                                        std::vector<u64>(mtf::kAlphabetSize, 0));
    for (std::size_t g = 0; g < numGroups; ++g) {
      auto [lo, hi] = groupSpan(g);
      for (std::size_t i = lo; i < hi; ++i) ++freqs[plan.selectors[g]][symbols[i]];
    }
    plan.lengths.assign(static_cast<std::size_t>(numTables), {});
    for (int t = 0; t < numTables; ++t) {
      auto& f = freqs[static_cast<std::size_t>(t)];
      // Every table must be decodable even if it lost all its groups; give
      // it the end-of-block symbol at minimum.
      f[mtf::kEob] = std::max<u64>(f[mtf::kEob], 1);
      if (std::count_if(f.begin(), f.end(), [](u64 v) { return v > 0; }) < 2) f[mtf::kRunA] += 1;
      plan.lengths[static_cast<std::size_t>(t)] = huffman::codeLengths(f, kMaxCodeBits);
    }
    // Reassign each group to its cheapest table.
    for (std::size_t g = 0; g < numGroups; ++g) {
      auto [lo, hi] = groupSpan(g);
      const std::vector<u32> slice(symbols.begin() + static_cast<std::ptrdiff_t>(lo),
                                   symbols.begin() + static_cast<std::ptrdiff_t>(hi));
      u64 best = ~u64{0};
      for (int t = 0; t < numTables; ++t) {
        const u64 cost = groupCost(slice, plan.lengths[static_cast<std::size_t>(t)]);
        if (cost < best) {
          best = cost;
          plan.selectors[g] = static_cast<u8>(t);
        }
      }
    }
  }

  // Final rebuild so the emitted tables match the final assignment exactly.
  std::vector<std::vector<u64>> freqs(static_cast<std::size_t>(numTables),
                                      std::vector<u64>(mtf::kAlphabetSize, 0));
  for (std::size_t g = 0; g < numGroups; ++g) {
    auto [lo, hi] = groupSpan(g);
    for (std::size_t i = lo; i < hi; ++i) ++freqs[plan.selectors[g]][symbols[i]];
  }
  for (int t = 0; t < numTables; ++t) {
    auto& f = freqs[static_cast<std::size_t>(t)];
    f[mtf::kEob] = std::max<u64>(f[mtf::kEob], 1);
    if (std::count_if(f.begin(), f.end(), [](u64 v) { return v > 0; }) < 2) f[mtf::kRunA] += 1;
    plan.lengths[static_cast<std::size_t>(t)] = huffman::codeLengths(f, kMaxCodeBits);
  }
  return plan;
}

}  // namespace

Bytes Bzip2ishCodec::compress(ByteSpan data) const {
  Bytes out;
  MemorySink sink(out);
  writeU32(sink, kMagic);
  writeU64(sink, data.size());
  writeU32(sink, crc32(data));

  std::size_t offset = 0;
  while (offset < data.size() || data.empty()) {
    const std::size_t len = std::min(blockSize_, data.size() - offset);
    const ByteSpan block = data.subspan(offset, len);

    // bzip2's pipeline: RLE1 guard pass, block sort, MTF, zero-run coding.
    const Bytes rle1 = mtf::rle1Encode(block);
    const auto transformed = bwt::forward(rle1);
    const Bytes mtfStream = mtf::encode(transformed.lastColumn);
    const auto symbols = mtf::zeroRunEncode(mtfStream);

    const int numTables = tableCountFor(symbols.size());
    const TablePlan plan = planTables(symbols, numTables);

    writeU32(sink, static_cast<u32>(len));
    writeU32(sink, static_cast<u32>(rle1.size()));
    writeU32(sink, transformed.primaryIndex);
    BitWriter bw(sink);
    bw.writeBits(static_cast<u32>(numTables), 3);
    for (const auto& lengths : plan.lengths) huffman::writeCompressedLengths(bw, lengths);

    // Selectors (3 bits each, like bzip2's per-50-symbol table choice) are
    // interleaved at group starts so the decoder, which only learns the
    // symbol count as it decodes, can pick them up in stride.
    std::vector<huffman::Encoder> encoders;
    encoders.reserve(plan.lengths.size());
    for (const auto& lengths : plan.lengths) encoders.emplace_back(lengths);
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      const std::size_t g = i / kGroupSize;
      if (i % kGroupSize == 0) bw.writeBits(plan.selectors[g], 3);
      encoders[plan.selectors[g]].encode(bw, symbols[i]);
    }
    bw.finish();

    offset += len;
    if (data.empty()) break;
  }
  return out;
}

Bytes Bzip2ishCodec::decompress(ByteSpan data) const {
  MemorySource source(data);
  checkFormat(readU32(source) == kMagic, "bad bzip2ish magic");
  const u64 originalSize = readU64(source);
  const u32 expectedCrc = readU32(source);

  Bytes out;
  // Untrusted header: cap the reserve hint (see DeflateCodec::decompress).
  out.reserve(static_cast<std::size_t>(std::min<u64>(originalSize, 1u << 20)));
  BitSpanReader br(data.subspan(16));
  // Each block starts on a byte boundary with three big-endian u32 words.
  auto readWord = [&br] {
    u8 b[4];
    br.readAligned(MutableByteSpan(b, 4));
    return (static_cast<u32>(b[0]) << 24) | (static_cast<u32>(b[1]) << 16) |
           (static_cast<u32>(b[2]) << 8) | b[3];
  };
  while (out.size() < originalSize) {
    br.alignToByte();
    const u32 blockLen = readWord();
    const u32 rle1Len = readWord();
    const u32 primaryIndex = readWord();
    const int numTables = static_cast<int>(br.readBits(3));
    checkFormat(numTables >= 1 && numTables <= kMaxTables, "bad table count");
    std::vector<huffman::Decoder> decoders;
    decoders.reserve(static_cast<std::size_t>(numTables));
    for (int t = 0; t < numTables; ++t) {
      decoders.emplace_back(huffman::readCompressedLengths(br, mtf::kAlphabetSize));
    }

    // Selector count is implied by the symbol count, which we only learn as
    // we decode; read selectors lazily, one per 50 symbols.
    std::vector<u32> symbols;
    u32 selector = 0;
    for (;;) {
      if (symbols.size() % kGroupSize == 0) {
        selector = br.readBits(3);
        checkFormat(selector < static_cast<u32>(numTables), "bad selector");
      }
      const u32 s = decoders[selector].decode(br);
      symbols.push_back(s);
      if (s == mtf::kEob) break;
    }
    const Bytes mtfStream = mtf::zeroRunDecode(symbols);
    checkFormat(mtfStream.size() == rle1Len, "block length mismatch");
    const Bytes lastColumn = mtf::decode(mtfStream);
    const Bytes block = mtf::rle1Decode(bwt::inverse(lastColumn, primaryIndex));
    checkFormat(block.size() == blockLen, "raw block length mismatch");
    out.insert(out.end(), block.begin(), block.end());
  }
  checkFormat(out.size() == originalSize, "size mismatch");
  checkFormat(crc32(out) == expectedCrc, "CRC mismatch");
  return out;
}

}  // namespace scishuffle
