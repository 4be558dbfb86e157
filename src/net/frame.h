// Length-prefixed binary frames for the coordinator/worker transport and the
// job service's control endpoint.
//
// Wire layout (little-endian, mirroring the SBF1 block-frame discipline):
//
//   frame := magic:u32("SNF1") type:u8 length:u32 payload[length] crc:u32
//
// The trailing CRC32 covers everything before it (magic, type, length, and
// payload), so a single flipped bit anywhere in the frame is detected. The
// decoder validates the header against the bytes actually available before
// reserving payload storage: a forged length can never make it allocate more
// than the caller handed in. All malformed inputs surface as FormatError with
// a message naming the violated invariant; truncated-but-so-far-valid input
// is reported distinctly so stream readers know to wait for more bytes.
#pragma once

#include <cstddef>

#include "io/common.h"

namespace scishuffle::net {

/// Control- and data-plane message tags. The numeric values are wire format;
/// append only.
enum class FrameType : u8 {
  kHello = 1,         // worker -> coordinator: id + data-plane socket path
  kAssign = 2,        // coordinator -> worker: run this map task
  kTaskDone = 3,      // worker -> coordinator: task stats + counters
  kTaskFailed = 4,    // worker -> coordinator: task raised after retries
  kHeartbeat = 5,     // worker -> coordinator: liveness beacon
  kShutdown = 6,      // coordinator -> worker: drain and exit
  kFetchRequest = 7,  // reducer -> worker data plane
  kFetchResponse = 8, // worker data plane -> reducer: one segment
  kFetchError = 9,    // worker data plane -> reducer: structured refusal
  kServiceRequest = 10,  // CLI -> job service endpoint: one text request
  kServiceReply = 11,    // job service endpoint -> CLI: the reply text
};

struct Frame {
  FrameType type = FrameType::kHello;
  Bytes payload;
};

inline constexpr u32 kFrameMagic = 0x31464E53u;  // "SNF1" little-endian
inline constexpr std::size_t kFrameHeaderBytes = 9;    // magic + type + length
inline constexpr std::size_t kFrameOverheadBytes = 13; // header + trailing crc
/// Upper bound on a frame payload; a length field above this is rejected as
/// forged before any allocation happens.
inline constexpr std::size_t kMaxFramePayload = std::size_t{64} << 20;

/// Serialises `frame` (header + payload + CRC). Throws FormatError if the
/// payload exceeds kMaxFramePayload.
Bytes encodeFrame(const Frame& frame);

/// Thrown by decodeFrame when `data` is a valid prefix of a frame but ends
/// early; stream readers catch it and read more bytes. Inherits FormatError
/// so non-stream callers still see a structured decode failure.
class FrameTruncatedError : public FormatError {
 public:
  using FormatError::FormatError;
};

/// Decodes one frame from the front of `data`, returning the number of bytes
/// consumed. Throws FrameTruncatedError when data is a valid but incomplete
/// prefix, FormatError for bad magic, oversized/forged lengths, or CRC
/// mismatch. Never reserves more than `data.size()` bytes.
std::size_t decodeFrame(ByteSpan data, Frame& out);

}  // namespace scishuffle::net
