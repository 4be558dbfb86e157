// Wire-frame parser hardening: round-trips, then the adversarial side —
// random garbage, every possible truncation, every possible single-bit flip,
// and forged length fields. The decoder's contract: structured FormatError on
// anything malformed, never an allocation larger than the input.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "io/crc32.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "proptest.h"

namespace {

using namespace scishuffle;
using scishuffle::testing::adversarialBytes;
using scishuffle::testing::randomBytes;

net::Frame makeFrame(net::FrameType type, std::size_t payloadLen, u32 seed) {
  net::Frame f;
  f.type = type;
  f.payload = randomBytes(payloadLen, seed);
  return f;
}

TEST(NetFrameTest, RoundTripAllTypesAndSizes) {
  const net::FrameType types[] = {
      net::FrameType::kHello,        net::FrameType::kAssign,
      net::FrameType::kTaskDone,     net::FrameType::kTaskFailed,
      net::FrameType::kHeartbeat,    net::FrameType::kShutdown,
      net::FrameType::kFetchRequest, net::FrameType::kFetchResponse,
      net::FrameType::kFetchError,
  };
  const std::size_t sizes[] = {0, 1, 7, 64, 4096};
  u32 seed = 1;
  for (net::FrameType type : types) {
    for (std::size_t n : sizes) {
      const net::Frame in = makeFrame(type, n, seed++);
      const Bytes wire = encodeFrame(in);
      EXPECT_EQ(wire.size(), n + net::kFrameOverheadBytes);
      net::Frame out;
      const std::size_t consumed = decodeFrame(wire, out);
      EXPECT_EQ(consumed, wire.size());
      EXPECT_EQ(out.type, in.type);
      EXPECT_EQ(out.payload, in.payload);
    }
  }
}

TEST(NetFrameTest, DecodeConsumesOnlyOneFrame) {
  Bytes wire = encodeFrame(makeFrame(net::FrameType::kHeartbeat, 32, 9));
  const std::size_t one = wire.size();
  const Bytes second = encodeFrame(makeFrame(net::FrameType::kAssign, 8, 10));
  wire.insert(wire.end(), second.begin(), second.end());
  net::Frame out;
  EXPECT_EQ(decodeFrame(wire, out), one);
  EXPECT_EQ(out.type, net::FrameType::kHeartbeat);
}

TEST(NetFrameTest, RejectsAdversarialGarbage) {
  std::mt19937_64 rng(0x5eed5eedULL);
  for (int i = 0; i < 500; ++i) {
    const Bytes junk = adversarialBytes(rng, 2048);
    net::Frame out;
    // Any of the adversarial shapes must be rejected with a structured error;
    // "SNF1" plus a matching CRC32 does not arise from noise.
    EXPECT_THROW(decodeFrame(junk, out), FormatError) << "iteration " << i;
  }
}

TEST(NetFrameTest, RetiredTypesAreRejected) {
  // Types 10 and 11 carried the retired job-service request and reply. A
  // frame that names one is malformed even with a valid CRC, and the values
  // are never reused.
  for (const u8 retired : {u8{10}, u8{11}}) {
    Bytes wire = encodeFrame(makeFrame(net::FrameType::kFetchError, 16, retired));
    wire[4] = retired;
    const u32 crc = crc32(ByteSpan(wire.data(), wire.size() - 4));
    for (int i = 0; i < 4; ++i) wire[wire.size() - 4 + i] = static_cast<u8>(crc >> (8 * i));
    net::Frame out;
    try {
      decodeFrame(wire, out);
      ADD_FAILURE() << "retired frame type " << int{retired} << " decoded";
    } catch (const net::FrameTruncatedError&) {
      ADD_FAILURE() << "retired frame type " << int{retired} << " misread as truncation";
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("frame type out of range"), std::string::npos)
          << e.what();
    }
  }
}

TEST(NetFrameTest, EveryStrictPrefixReportsTruncation) {
  const Bytes wire = encodeFrame(makeFrame(net::FrameType::kTaskDone, 100, 3));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    net::Frame out;
    const ByteSpan prefix(wire.data(), len);
    // A prefix of a valid frame is by construction valid-so-far, so the
    // decoder must ask for more bytes rather than mislabel it malformed.
    EXPECT_THROW(decodeFrame(prefix, out), net::FrameTruncatedError) << "prefix " << len;
  }
}

TEST(NetFrameTest, EverySingleBitFlipIsDetected) {
  const Bytes wire = encodeFrame(makeFrame(net::FrameType::kFetchResponse, 96, 4));
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = wire;
      flipped[byte] = static_cast<u8>(flipped[byte] ^ (1u << bit));
      net::Frame out;
      // Magic flips fail the magic check, length flips either run past the
      // buffer or land the CRC on payload bytes, everything else fails the
      // CRC (which detects all single-bit errors by construction).
      EXPECT_THROW(decodeFrame(flipped, out), FormatError)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(NetFrameTest, ForgedLengthNeverOverReserves) {
  // Length claims kMaxFramePayload but only a handful of bytes follow: must
  // be reported as truncation (valid-so-far), and the implementation bounds
  // its reserve by data.size(), so this cannot allocate 64 MiB.
  Bytes wire = encodeFrame(makeFrame(net::FrameType::kFetchResponse, 4, 5));
  const u32 forged = static_cast<u32>(net::kMaxFramePayload);
  for (int i = 0; i < 4; ++i) wire[5 + i] = static_cast<u8>(forged >> (8 * i));
  net::Frame out;
  EXPECT_THROW(decodeFrame(wire, out), net::FrameTruncatedError);

  // Length above the cap is forged outright — a hard FormatError, never the
  // "wait for more bytes" truncation signal a stream reader would obey.
  const u32 huge = static_cast<u32>(net::kMaxFramePayload) + 1;
  for (int i = 0; i < 4; ++i) wire[5 + i] = static_cast<u8>(huge >> (8 * i));
  bool rejected = false;
  try {
    decodeFrame(wire, out);
  } catch (const net::FrameTruncatedError&) {
    ADD_FAILURE() << "oversized length misclassified as truncation";
  } catch (const FormatError&) {
    rejected = true;
  }
  EXPECT_TRUE(rejected);
}

TEST(NetFrameTest, EncodeRejectsOversizedPayload) {
  net::Frame f;
  f.type = net::FrameType::kFetchResponse;
  // Don't actually allocate 64 MiB+1 of entropy; resize is cheap and enough.
  f.payload.resize(net::kMaxFramePayload + 1);
  EXPECT_THROW(encodeFrame(f), FormatError);
}

TEST(NetProtocolTest, MessageDecodersSurviveAdversarialPayloads) {
  std::mt19937_64 rng(0xfeedULL);
  const net::FrameType types[] = {
      net::FrameType::kHello,        net::FrameType::kAssign,
      net::FrameType::kTaskDone,     net::FrameType::kTaskFailed,
      net::FrameType::kHeartbeat,    net::FrameType::kFetchRequest,
      net::FrameType::kFetchResponse, net::FrameType::kFetchError,
  };
  for (int i = 0; i < 400; ++i) {
    net::Frame f;
    f.type = types[i % (sizeof(types) / sizeof(types[0]))];
    f.payload = adversarialBytes(rng, 1024);
    // Decoders must either produce a message or throw FormatError — anything
    // else (crash, over-reserve, uncaught std::length_error) is a bug. The
    // ASan job runs this too, so quiet memory damage also fails.
    try {
      switch (f.type) {
        case net::FrameType::kHello: (void)net::HelloMsg::decode(f); break;
        case net::FrameType::kAssign: (void)net::AssignMsg::decode(f); break;
        case net::FrameType::kTaskDone: (void)net::TaskDoneMsg::decode(f); break;
        case net::FrameType::kTaskFailed: (void)net::TaskFailedMsg::decode(f); break;
        case net::FrameType::kHeartbeat: (void)net::HeartbeatMsg::decode(f); break;
        case net::FrameType::kFetchRequest: (void)net::FetchRequestMsg::decode(f); break;
        case net::FrameType::kFetchResponse: (void)net::FetchResponseMsg::decode(f); break;
        case net::FrameType::kFetchError: (void)net::FetchErrorMsg::decode(f); break;
        default: break;
      }
    } catch (const FormatError&) {
      // structured rejection: exactly the contract
    }
  }
}

}  // namespace
