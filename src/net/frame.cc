#include "net/frame.h"

#include "io/crc32.h"

namespace scishuffle::net {

namespace {

u32 loadU32(const u8* p) {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

void storeU32(Bytes& out, u32 v) {
  out.push_back(static_cast<u8>(v & 0xFF));
  out.push_back(static_cast<u8>((v >> 8) & 0xFF));
  out.push_back(static_cast<u8>((v >> 16) & 0xFF));
  out.push_back(static_cast<u8>((v >> 24) & 0xFF));
}

bool validType(u8 t) {
  return t >= static_cast<u8>(FrameType::kHello) &&
         t <= static_cast<u8>(FrameType::kServiceReply);
}

}  // namespace

Bytes encodeFrame(const Frame& frame) {
  checkFormat(frame.payload.size() <= kMaxFramePayload, "frame payload exceeds kMaxFramePayload");
  Bytes out;
  out.reserve(kFrameOverheadBytes + frame.payload.size());
  storeU32(out, kFrameMagic);
  out.push_back(static_cast<u8>(frame.type));
  storeU32(out, static_cast<u32>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  storeU32(out, crc32(ByteSpan(out.data(), out.size())));
  return out;
}

std::size_t decodeFrame(ByteSpan data, Frame& out) {
  // Validate the header field-by-field against the bytes we actually have, so
  // a forged length can never drive an allocation past data.size().
  if (data.size() < 4) {
    // With under four bytes we cannot even rule the magic out; treat a valid
    // prefix as truncation, anything else as garbage.
    for (std::size_t i = 0; i < data.size(); ++i) {
      checkFormat(data[i] == static_cast<u8>((kFrameMagic >> (8 * i)) & 0xFF),
                  "frame magic mismatch");
    }
    throw FrameTruncatedError("frame truncated inside magic");
  }
  checkFormat(loadU32(data.data()) == kFrameMagic, "frame magic mismatch");
  if (data.size() < kFrameHeaderBytes) throw FrameTruncatedError("frame truncated inside header");
  const u8 type = data[4];
  checkFormat(validType(type), "frame type out of range");
  const std::size_t length = loadU32(data.data() + 5);
  checkFormat(length <= kMaxFramePayload, "frame length exceeds kMaxFramePayload");
  const std::size_t total = kFrameOverheadBytes + length;
  if (data.size() < total) throw FrameTruncatedError("frame truncated inside payload");
  const u32 expected = loadU32(data.data() + kFrameHeaderBytes + length);
  const u32 actual = crc32(data.subspan(0, kFrameHeaderBytes + length));
  checkFormat(actual == expected, "frame crc mismatch");
  out.type = static_cast<FrameType>(type);
  out.payload.assign(data.begin() + kFrameHeaderBytes,
                     data.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes + length));
  return total;
}

}  // namespace scishuffle::net
