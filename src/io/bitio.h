// Bit-granular writers/readers used by the entropy coders in src/compress.
// Bits are packed LSB-first within each byte (DEFLATE convention).
//
// BitWriter batches bits in a 64-bit accumulator and spills whole bytes into
// a staging buffer, flushing the sink in chunks instead of per byte; the bit
// stream produced is identical to the historical byte-at-a-time writer.
// BitSpanReader reads in-memory buffers through a 64-bit prefetch
// accumulator with peek/consume, so table-driven Huffman decoding can look
// at several codes' worth of bits at once (see docs/PERFORMANCE.md).
#pragma once

#include <cstring>

#include "io/common.h"
#include "io/streams.h"

namespace scishuffle {

class BitWriter {
 public:
  explicit BitWriter(ByteSink& sink) : sink_(&sink) {}

  /// Writes the low `count` bits of `bits`, LSB first. count <= 32.
  void writeBits(u32 bits, int count) {
    check(count >= 0 && count <= 32, "bit count out of range");
    bitsWritten_ += static_cast<u64>(count);
    acc_ |= (static_cast<u64>(bits) & ((u64{1} << count) - 1u)) << accBits_;
    accBits_ += count;
    if (accBits_ >= 32) spillAccBytes();
  }

  /// Writes a Huffman code given MSB-first (canonical codes are naturally
  /// MSB-first); reverses into the LSB-first stream.
  void writeCodeMsbFirst(u32 code, int length);

  /// Pads to a byte boundary with zero bits and flushes everything staged,
  /// so the underlying sink may be written to directly afterwards.
  void alignToByte();

  /// Must be called before the underlying sink is used directly again.
  void finish() { alignToByte(); }

  u64 bitsWritten() const { return bitsWritten_; }

 private:
  static constexpr std::size_t kBufSize = 4096;

  void spillAccBytes();  // moves whole accumulator bytes into buf_
  void flushBuf();       // writes buf_ to the sink

  ByteSink* sink_;
  u64 acc_ = 0;
  int accBits_ = 0;
  u64 bitsWritten_ = 0;
  std::size_t bufLen_ = 0;
  u8 buf_[kBufSize];
};

/// LSB-first bit reader over an in-memory span: readBits() throws
/// FormatError at EOF, alignToByte() drops only the partial byte. Its
/// prefetching fast path: refill() tops the accumulator up to >= 56 buffered
/// bits, peek() exposes them without consuming, consume() drops them. This
/// is what lets the codecs' decoders resolve a whole Huffman code from a
/// table probe instead of bit-by-bit tree walking.
class BitSpanReader {
 public:
  explicit BitSpanReader(ByteSpan data) : data_(data) {}

  u32 readBits(int count) {
    check(count >= 0 && count <= 32, "bit count out of range");
    if (accBits_ < count) {
      refill();
      checkFormat(accBits_ >= count, "EOF in bit stream");
    }
    const u32 out = static_cast<u32>(acc_ & ((u64{1} << count) - 1u));
    acc_ >>= count;
    accBits_ -= count;
    return out;
  }

  u32 readBit() { return readBits(1); }

  /// Tops up the accumulator from the span; afterwards accBits_ >= 57 or the
  /// span is exhausted.
  void refill() {
    while (accBits_ <= 56 && pos_ < data_.size()) {
      acc_ |= static_cast<u64>(data_[pos_++]) << accBits_;
      accBits_ += 8;
    }
  }

  /// Buffered bit count (only grows via refill/readBits).
  int bitsBuffered() const { return accBits_; }

  /// Low `count` buffered bits without consuming; bits beyond bitsBuffered()
  /// read as zero. count <= 57.
  u32 peek(int count) const { return static_cast<u32>(acc_ & ((u64{1} << count) - 1u)); }

  /// Drops `count` bits; requires count <= bitsBuffered().
  void consume(int count) {
    acc_ >>= count;
    accBits_ -= count;
  }

  /// Discards bits up to the next byte boundary (whole buffered bytes stay).
  void alignToByte() {
    const int drop = accBits_ & 7;
    acc_ >>= drop;
    accBits_ -= drop;
  }

  /// Byte-exact read for stored blocks; requires byte alignment. Serves
  /// buffered accumulator bytes first, then copies straight from the span.
  /// Throws FormatError if the span runs out.
  void readAligned(MutableByteSpan out) {
    check((accBits_ & 7) == 0, "readAligned on unaligned bit reader");
    std::size_t i = 0;
    while (i < out.size() && accBits_ > 0) {
      out[i++] = static_cast<u8>(acc_);
      acc_ >>= 8;
      accBits_ -= 8;
    }
    const std::size_t rest = out.size() - i;
    checkFormat(data_.size() - pos_ >= rest, "EOF in bit stream");
    if (rest > 0) std::memcpy(out.data() + i, data_.data() + pos_, rest);
    pos_ += rest;
  }

 private:
  ByteSpan data_;
  std::size_t pos_ = 0;
  u64 acc_ = 0;
  int accBits_ = 0;
};

}  // namespace scishuffle
