#include "compress/deflate.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <span>

#include "compress/huffman.h"
#include "compress/lz77.h"
#include "io/bitio.h"
#include "io/crc32.h"
#include "io/primitives.h"
#include "io/streams.h"

namespace scishuffle {

namespace {

constexpr u32 kMagic = 0x535A4731;  // "SZG1"
constexpr std::size_t kNumLitLen = 286;
constexpr std::size_t kNumDist = 30;
constexpr int kMaxCodeBits = 15;
constexpr std::size_t kTokensPerBlock = 1 << 16;

// Block types, mirroring RFC 1951 BTYPE: a block is whichever of the three
// encodings is smallest for its contents.
constexpr u32 kBlockStored = 0;
constexpr u32 kBlockStatic = 1;
constexpr u32 kBlockDynamic = 2;

// RFC 1951 length code table: symbol 257+i covers lengths starting at
// kLenBase[i] with kLenExtra[i] extra bits.
constexpr std::array<u16, 29> kLenBase = {3,  4,  5,  6,  7,  8,  9,  10, 11,  13,
                                          15, 17, 19, 23, 27, 31, 35, 43, 51,  59,
                                          67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<u8, 29> kLenExtra = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                          2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

constexpr std::array<u32, 30> kDistBase = {1,    2,    3,    4,    5,    7,     9,    13,
                                           17,   25,   33,   49,   65,   97,    129,  193,
                                           257,  385,  513,  769,  1025, 1537,  2049, 3073,
                                           4097, 6145, 8193, 12289, 16385, 24577};
constexpr std::array<u8, 30> kDistExtra = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                           4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                           9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Direct length → symbol and distance → symbol lookups replacing the
// historical linear scans on every token (precomputed length/distance
// symbol+extra-bits tables).
constexpr std::array<u8, 259> kLengthSym = [] {
  std::array<u8, 259> table{};
  for (int i = 0; i < 29; ++i) {
    const u32 lo = kLenBase[static_cast<std::size_t>(i)];
    const u32 hi = i == 28 ? 258 : kLenBase[static_cast<std::size_t>(i) + 1] - 1u;
    for (u32 len = lo; len <= hi; ++len) table[len] = static_cast<u8>(i);
  }
  return table;
}();

// zlib-style split index: distances 1..256 map directly, larger ones through
// a 128-distance-granular upper half.
constexpr std::array<u8, 512> kDistSym = [] {
  std::array<u8, 512> table{};
  for (int s = 0; s < 30; ++s) {
    const u32 lo = kDistBase[static_cast<std::size_t>(s)];
    const u32 hi = s == 29 ? 32768 : kDistBase[static_cast<std::size_t>(s) + 1] - 1u;
    for (u32 d = lo; d <= hi; ++d) {
      const u32 i = d - 1;
      if (i < 256) {
        table[i] = static_cast<u8>(s);
      } else {
        table[256 + (i >> 7)] = static_cast<u8>(s);
      }
    }
  }
  return table;
}();

u32 lengthSymbol(u32 len) { return kLengthSym[len]; }

u32 distanceSymbol(u32 dist) {
  const u32 i = dist - 1;
  return i < 256 ? kDistSym[i] : kDistSym[256 + (i >> 7)];
}

/// RFC 1951 fixed (static) code lengths.
std::vector<u8> staticLitLengths() {
  std::vector<u8> lengths(kNumLitLen);
  for (std::size_t s = 0; s < kNumLitLen; ++s) {
    if (s <= 143) {
      lengths[s] = 8;
    } else if (s <= 255) {
      lengths[s] = 9;
    } else if (s <= 279) {
      lengths[s] = 7;
    } else {
      lengths[s] = 8;
    }
  }
  return lengths;
}

std::vector<u8> staticDistLengths() { return std::vector<u8>(kNumDist, 5); }

const huffman::Encoder& staticLitEncoder() {
  static const huffman::Encoder* enc = new huffman::Encoder(staticLitLengths());
  return *enc;
}

const huffman::Encoder& staticDistEncoder() {
  static const huffman::Encoder* enc = new huffman::Encoder(staticDistLengths());
  return *enc;
}

const huffman::Decoder& staticLitDecoder() {
  static const huffman::Decoder* dec = new huffman::Decoder(staticLitLengths());
  return *dec;
}

const huffman::Decoder& staticDistDecoder() {
  static const huffman::Decoder* dec = new huffman::Decoder(staticDistLengths());
  return *dec;
}

void writeBlockHeader(BitWriter& bw, const std::vector<u8>& litLengths,
                      const std::vector<u8>& distLengths) {
  std::vector<u8> all(litLengths);
  all.insert(all.end(), distLengths.begin(), distLengths.end());
  bw.writeBits(static_cast<u32>(litLengths.size() - 257), 6);
  bw.writeBits(static_cast<u32>(distLengths.size() - 1), 6);
  huffman::writeCompressedLengths(bw, all);
}

std::pair<std::vector<u8>, std::vector<u8>> readBlockHeader(BitSpanReader& br) {
  const std::size_t numLit = br.readBits(6) + 257;
  const std::size_t numDist = br.readBits(6) + 1;
  checkFormat(numLit <= kNumLitLen && numDist <= kNumDist, "bad table sizes");
  const auto all = huffman::readCompressedLengths(br, numLit + numDist);
  return {std::vector<u8>(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(numLit)),
          std::vector<u8>(all.begin() + static_cast<std::ptrdiff_t>(numLit), all.end())};
}

/// Writes the token payload: one batched writeBits per field group (Huffman
/// code and extra bits together), using the encoders' pre-reversed codes.
void writeTokens(BitWriter& bw, std::span<const lz77::Token> tokens, const huffman::Encoder& lit,
                 const huffman::Encoder& dist) {
  for (const auto& t : tokens) {
    if (t.length == 0) {
      bw.writeBits(lit.reversedCode(t.literal), lit.codeLength(t.literal));
    } else {
      const u32 ls = lengthSymbol(t.length);
      const u32 sym = 257 + ls;
      u32 bits = lit.reversedCode(sym);
      int count = lit.codeLength(sym);
      bits |= (t.length - kLenBase[ls]) << count;  // code <= 15 bits + extra <= 5
      count += kLenExtra[ls];
      bw.writeBits(bits, count);

      const u32 ds = distanceSymbol(t.distance);
      u32 dbits = dist.reversedCode(ds);
      int dcount = dist.codeLength(ds);
      dbits |= (t.distance - kDistBase[ds]) << dcount;  // code <= 15 + extra <= 13
      dcount += kDistExtra[ds];
      bw.writeBits(dbits, dcount);
    }
  }
  bw.writeBits(lit.reversedCode(256), lit.codeLength(256));
}

/// Exact bit cost of a token payload under given code lengths, computed from
/// the block's symbol frequencies instead of a pass over every token.
u64 payloadBits(const std::vector<u8>& litLengths, const std::vector<u8>& distLengths,
                const std::vector<u64>& litFreq, const std::vector<u64>& distFreq) {
  u64 bits = 0;
  for (std::size_t s = 0; s < kNumLitLen; ++s) {
    const u64 extra = s >= 257 ? kLenExtra[s - 257] : 0;
    bits += litFreq[s] * (litLengths[s] + extra);
  }
  for (std::size_t d = 0; d < kNumDist; ++d) {
    bits += distFreq[d] * (distLengths[d] + kDistExtra[d]);
  }
  return bits;
}

/// Bit cost of the dynamic header (measured by writing it to a null sink).
u64 dynamicHeaderBits(const std::vector<u8>& litLengths, const std::vector<u8>& distLengths) {
  NullSink null;
  BitWriter bw(null);
  writeBlockHeader(bw, litLengths, distLengths);
  return bw.bitsWritten();
}

/// Appends `len` bytes starting `dist` back from the end of `out`.
void copyMatch(Bytes& out, u32 dist, u32 len) {
  const std::size_t at = out.size();
  out.resize(at + len);
  u8* dst = out.data() + at;
  const u8* src = dst - dist;
  if (dist == 1) {
    std::memset(dst, *src, len);
  } else if (dist >= len) {
    std::memcpy(dst, src, len);
  } else {
    for (u32 i = 0; i < len; ++i) dst[i] = src[i];  // overlapping run
  }
}

}  // namespace

Bytes DeflateCodec::compress(ByteSpan data) const {
  Bytes out;
  MemorySink sink(out);
  writeU32(sink, kMagic);
  writeU64(sink, data.size());
  writeU32(sink, crc32(data));

  const std::vector<lz77::Token> tokens = lz77::parse(data, options_);
  BitWriter bw(sink);

  std::vector<u64> litFreq(kNumLitLen, 0);
  std::vector<u64> distFreq(kNumDist, 0);

  std::size_t start = 0;
  std::size_t rawStart = 0;
  do {
    const std::size_t end = std::min(tokens.size(), start + kTokensPerBlock);
    const bool final = end == tokens.size();
    bw.writeBits(final ? 1 : 0, 1);

    const auto blockTokens = std::span<const lz77::Token>(tokens).subspan(start, end - start);

    // One pass: block-local symbol frequencies and the original byte extent
    // of this token range (for the stored option).
    std::fill(litFreq.begin(), litFreq.end(), u64{0});
    std::fill(distFreq.begin(), distFreq.end(), u64{0});
    litFreq[256] = 1;  // end-of-block
    std::size_t rawLen = 0;
    for (const auto& t : blockTokens) {
      if (t.length == 0) {
        ++litFreq[t.literal];
        ++rawLen;
      } else {
        ++litFreq[257 + static_cast<std::size_t>(lengthSymbol(t.length))];
        ++distFreq[static_cast<std::size_t>(distanceSymbol(t.distance))];
        rawLen += t.length;
      }
    }
    // The distance table must have at least one code or the header Huffman
    // construction degenerates; give distance 0 a phantom entry if unused.
    if (std::all_of(distFreq.begin(), distFreq.end(), [](u64 f) { return f == 0; })) {
      distFreq[0] = 1;
    }
    const auto dynLitLengths = huffman::codeLengths(litFreq, kMaxCodeBits);
    const auto dynDistLengths = huffman::codeLengths(distFreq, kMaxCodeBits);

    // Pick the smallest of stored / static / dynamic (RFC 1951's strategy).
    const u64 dynamicBits = 2 + dynamicHeaderBits(dynLitLengths, dynDistLengths) +
                            payloadBits(dynLitLengths, dynDistLengths, litFreq, distFreq);
    const u64 staticBits =
        2 + payloadBits(staticLitEncoder().lengths(), staticDistEncoder().lengths(), litFreq,
                        distFreq);
    const u64 storedBits = 2 + 7 /* worst-case alignment */ + 32 + 8 * static_cast<u64>(rawLen);

    if (storedBits < dynamicBits && storedBits < staticBits) {
      bw.writeBits(kBlockStored, 2);
      bw.alignToByte();
      sink.write(Bytes{static_cast<u8>(rawLen >> 24), static_cast<u8>(rawLen >> 16),
                       static_cast<u8>(rawLen >> 8), static_cast<u8>(rawLen)});
      sink.write(data.subspan(rawStart, rawLen));
    } else if (staticBits <= dynamicBits) {
      bw.writeBits(kBlockStatic, 2);
      writeTokens(bw, blockTokens, staticLitEncoder(), staticDistEncoder());
    } else {
      bw.writeBits(kBlockDynamic, 2);
      writeBlockHeader(bw, dynLitLengths, dynDistLengths);
      const huffman::Encoder litEnc(dynLitLengths);
      const huffman::Encoder distEnc(dynDistLengths);
      writeTokens(bw, blockTokens, litEnc, distEnc);
    }

    start = end;
    rawStart += rawLen;
  } while (start < tokens.size());
  bw.finish();
  return out;
}

Bytes DeflateCodec::decompress(ByteSpan data) const {
  MemorySource source(data);
  checkFormat(readU32(source) == kMagic, "bad gzipish magic");
  const u64 originalSize = readU64(source);
  const u32 expectedCrc = readU32(source);

  Bytes out;
  // The header is untrusted until the CRC check passes; cap the hint so a
  // corrupt size field cannot trigger a huge allocation.
  out.reserve(static_cast<std::size_t>(std::min<u64>(originalSize, 1u << 20)));
  BitSpanReader br(data.subspan(16));
  bool final = false;
  while (!final) {
    final = br.readBits(1) != 0;
    const u32 blockType = br.readBits(2);

    if (blockType == kBlockStored) {
      br.alignToByte();
      u8 lenBytes[4];
      br.readAligned(MutableByteSpan(lenBytes, 4));
      const u32 len = (static_cast<u32>(lenBytes[0]) << 24) | (static_cast<u32>(lenBytes[1]) << 16) |
                      (static_cast<u32>(lenBytes[2]) << 8) | lenBytes[3];
      checkFormat(out.size() + len <= originalSize, "stored block overruns size");
      const std::size_t at = out.size();
      out.resize(at + len);
      br.readAligned(MutableByteSpan(out.data() + at, len));
      continue;
    }

    const huffman::Decoder* litDec = nullptr;
    const huffman::Decoder* distDec = nullptr;
    std::optional<huffman::Decoder> dynLitDec;
    std::optional<huffman::Decoder> dynDistDec;
    if (blockType == kBlockStatic) {
      litDec = &staticLitDecoder();
      distDec = &staticDistDecoder();
    } else {
      checkFormat(blockType == kBlockDynamic, "bad block type");
      const auto [litLengths, distLengths] = readBlockHeader(br);
      dynLitDec.emplace(litLengths);
      dynDistDec.emplace(distLengths);
      litDec = &*dynLitDec;
      distDec = &*dynDistDec;
    }
    for (;;) {
      const u32 sym = litDec->decode(br);
      if (sym < 256) {
        out.push_back(static_cast<u8>(sym));
      } else if (sym == 256) {
        break;
      } else {
        const std::size_t ls = sym - 257;
        checkFormat(ls < kLenBase.size(), "bad length symbol");
        const u32 len = kLenBase[ls] + br.readBits(kLenExtra[ls]);
        const u32 ds = distDec->decode(br);
        checkFormat(ds < kDistBase.size(), "bad distance symbol");
        const u32 dist = kDistBase[ds] + br.readBits(kDistExtra[ds]);
        checkFormat(dist <= out.size(), "distance beyond output");
        copyMatch(out, dist, len);
      }
    }
  }
  checkFormat(out.size() == originalSize, "size mismatch");
  checkFormat(crc32(out) == expectedCrc, "CRC mismatch");
  return out;
}

}  // namespace scishuffle
