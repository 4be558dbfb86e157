#include "io/bitio.h"

namespace scishuffle {

void BitWriter::spillAccBytes() {
  while (accBits_ >= 8) {
    if (bufLen_ == kBufSize) flushBuf();
    buf_[bufLen_++] = static_cast<u8>(acc_);
    acc_ >>= 8;
    accBits_ -= 8;
  }
}

void BitWriter::flushBuf() {
  if (bufLen_ > 0) {
    sink_->write(ByteSpan(buf_, bufLen_));
    bufLen_ = 0;
  }
}

void BitWriter::writeCodeMsbFirst(u32 code, int length) {
  u32 reversed = 0;
  for (int i = 0; i < length; ++i) {
    reversed = (reversed << 1) | ((code >> i) & 1u);
  }
  writeBits(reversed, length);
}

void BitWriter::alignToByte() {
  spillAccBytes();
  if (accBits_ > 0) {
    if (bufLen_ == kBufSize) flushBuf();
    buf_[bufLen_++] = static_cast<u8>(acc_);
    bitsWritten_ += static_cast<u64>(8 - accBits_);
    acc_ = 0;
    accBits_ = 0;
  }
  flushBuf();
}

}  // namespace scishuffle
