// Canonical Huffman coding: length-limited code construction (package-merge),
// canonical code assignment, and table-driven decoding.
//
// Shared by the deflate-like and bzip2-like codecs. The Encoder precomputes
// bit-reversed (LSB-first-ready) codes so emitting a symbol is one writeBits
// call; the Decoder backs its canonical first-code tables with a root lookup
// table resolving codes of up to kRootBits bits in a single peek when fed
// from a BitSpanReader (see docs/PERFORMANCE.md). Bit streams are unchanged
// from the historical per-bit implementations.
#pragma once

#include <array>
#include <vector>

#include "io/bitio.h"
#include "io/common.h"

namespace scishuffle::huffman {

/// Computes optimal length-limited code lengths for the given symbol
/// frequencies using the package-merge algorithm. Symbols with zero frequency
/// get length 0 (no code). Requires maxLength >= ceil(log2(#nonzero)).
std::vector<u8> codeLengths(const std::vector<u64>& freqs, int maxLength);

/// Assigns canonical codes (MSB-first) from code lengths.
std::vector<u32> canonicalCodes(const std::vector<u8>& lengths);

/// Encoder over a fixed code table.
class Encoder {
 public:
  explicit Encoder(const std::vector<u8>& lengths);

  void encode(BitWriter& out, u32 symbol) const {
    check(symbol < lengths_.size() && lengths_[symbol] > 0, "symbol has no code");
    out.writeBits(reversed_[symbol], lengths_[symbol]);
  }

  /// The symbol's canonical code bit-reversed into LSB-first order, ready for
  /// BitWriter::writeBits. Callers batching several fields into one write
  /// (code + extra bits) use this with codeLength().
  u32 reversedCode(u32 symbol) const { return reversed_[symbol]; }
  int codeLength(u32 symbol) const { return lengths_[symbol]; }

  const std::vector<u8>& lengths() const { return lengths_; }

 private:
  std::vector<u8> lengths_;
  std::vector<u32> reversed_;  // canonical codes, bit-reversed per length
};

/// Serializes a code-length vector compactly using the RFC-1951 code-length
/// alphabet (literal 0..15, 16 = repeat previous 3-6, 17 = zero-run 3-10,
/// 18 = zero-run 11-138) under its own small Huffman table. Shared between
/// the deflate-like and bzip2-like codecs so degenerate blocks stay tiny.
void writeCompressedLengths(BitWriter& out, const std::vector<u8>& lengths);

/// Inverse of writeCompressedLengths; `count` is the expected vector size.
std::vector<u8> readCompressedLengths(BitSpanReader& in, std::size_t count);

/// Canonical decoder: a root lookup table resolves codes of up to kRootBits
/// bits in one probe; longer or invalid codes fall back to the per-length
/// first-code/first-index walk.
class Decoder {
 public:
  static constexpr int kRootBits = 10;

  explicit Decoder(const std::vector<u8>& lengths);

  /// Reads one symbol from the bit stream; throws FormatError on invalid code.
  u32 decode(BitSpanReader& in) const {
    if (in.bitsBuffered() < maxLen_) in.refill();
    const u16 entry = table_[in.peek(kRootBits)];
    if (entry != 0) {
      const int len = entry & 0xF;
      if (len <= in.bitsBuffered()) {
        in.consume(len);
        return entry >> 4;
      }
    }
    // Long code, invalid code, or near-EOF: the reference path preserves the
    // historical bit-by-bit semantics (including which errors fire first).
    return decodeSlow(in);
  }

 private:
  /// MSB-first canonical walk, one bit at a time. This is the reference
  /// implementation the table path must agree with.
  u32 decodeSlow(BitSpanReader& in) const {
    u32 code = 0;
    for (int l = 1; l <= maxLen_; ++l) {
      code = (code << 1) | in.readBit();
      const u32 count = (l < maxLen_ ? firstIndex_[static_cast<std::size_t>(l) + 1]
                                     : static_cast<u32>(symbols_.size())) -
                        firstIndex_[static_cast<std::size_t>(l)];
      if (count > 0 && code >= firstCode_[static_cast<std::size_t>(l)] &&
          code - firstCode_[static_cast<std::size_t>(l)] < count) {
        return symbols_[firstIndex_[static_cast<std::size_t>(l)] +
                        (code - firstCode_[static_cast<std::size_t>(l)])];
      }
    }
    throw FormatError("invalid Huffman code");
  }

  int maxLen_ = 0;
  std::vector<u32> firstCode_;   // indexed by length
  std::vector<u32> firstIndex_;  // indexed by length
  std::vector<u32> symbols_;     // canonical order
  // Root table over the next kRootBits LSB-first bits: (symbol << 4) | length
  // for codes no longer than kRootBits, 0 where the slow path must decide.
  std::array<u16, 1u << kRootBits> table_{};
};

}  // namespace scishuffle::huffman
