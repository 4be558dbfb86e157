#include "net/protocol.h"

#include "io/primitives.h"
#include "io/streams.h"

namespace scishuffle::net {

namespace {

void checkType(const Frame& frame, FrameType expected, const char* what) {
  if (frame.type != expected)
    throw FormatError(std::string("unexpected frame type for ") + what);
}

MemorySource bodySource(const Frame& frame) {
  return MemorySource(ByteSpan(frame.payload.data(), frame.payload.size()));
}

void checkDrained(const MemorySource& src, const char* what) {
  if (src.remaining() != 0)
    throw FormatError(std::string("trailing bytes after ") + what + " body");
}

/// readText with the declared length checked against the body first, so a
/// forged length is a FormatError instead of a huge allocation.
std::string readBodyText(MemorySource& src) {
  const i32 len = readVInt(src);
  checkFormat(len >= 0 && static_cast<std::size_t>(len) <= src.remaining(),
              "text length exceeds message body");
  std::string text(static_cast<std::size_t>(len), '\0');
  src.readExact(MutableByteSpan(reinterpret_cast<u8*>(text.data()), text.size()));
  return text;
}

}  // namespace

Frame HelloMsg::encode() const {
  Frame f{FrameType::kHello, {}};
  MemorySink sink(f.payload);
  writeU32(sink, worker_id);
  writeText(sink, data_socket);
  return f;
}

HelloMsg HelloMsg::decode(const Frame& frame) {
  checkType(frame, FrameType::kHello, "HelloMsg");
  MemorySource src = bodySource(frame);
  HelloMsg m;
  m.worker_id = readU32(src);
  m.data_socket = readBodyText(src);
  checkDrained(src, "HelloMsg");
  return m;
}

Frame AssignMsg::encode() const {
  Frame f{FrameType::kAssign, {}};
  MemorySink sink(f.payload);
  writeU32(sink, map_index);
  return f;
}

AssignMsg AssignMsg::decode(const Frame& frame) {
  checkType(frame, FrameType::kAssign, "AssignMsg");
  MemorySource src = bodySource(frame);
  AssignMsg m;
  m.map_index = readU32(src);
  checkDrained(src, "AssignMsg");
  return m;
}

Frame TaskDoneMsg::encode() const {
  Frame f{FrameType::kTaskDone, {}};
  MemorySink sink(f.payload);
  writeU32(sink, map_index);
  writeU64(sink, cpu_us);
  writeU32(sink, static_cast<u32>(segment_bytes.size()));
  for (u64 b : segment_bytes) writeU64(sink, b);
  writeU32(sink, static_cast<u32>(counters.size()));
  for (const auto& [name, value] : counters) {
    writeText(sink, name);
    writeU64(sink, value);
  }
  return f;
}

TaskDoneMsg TaskDoneMsg::decode(const Frame& frame) {
  checkType(frame, FrameType::kTaskDone, "TaskDoneMsg");
  MemorySource src = bodySource(frame);
  TaskDoneMsg m;
  m.map_index = readU32(src);
  m.cpu_us = readU64(src);
  const u32 numSegments = readU32(src);
  checkFormat(static_cast<std::size_t>(numSegments) * 8 <= src.remaining(),
              "TaskDoneMsg segment count exceeds body");
  m.segment_bytes.reserve(numSegments);
  for (u32 i = 0; i < numSegments; ++i) m.segment_bytes.push_back(readU64(src));
  const u32 numCounters = readU32(src);
  for (u32 i = 0; i < numCounters; ++i) {
    std::string name = readBodyText(src);
    m.counters[std::move(name)] = readU64(src);
  }
  checkDrained(src, "TaskDoneMsg");
  return m;
}

Frame TaskFailedMsg::encode() const {
  Frame f{FrameType::kTaskFailed, {}};
  MemorySink sink(f.payload);
  writeU32(sink, map_index);
  writeText(sink, error);
  return f;
}

TaskFailedMsg TaskFailedMsg::decode(const Frame& frame) {
  checkType(frame, FrameType::kTaskFailed, "TaskFailedMsg");
  MemorySource src = bodySource(frame);
  TaskFailedMsg m;
  m.map_index = readU32(src);
  m.error = readBodyText(src);
  checkDrained(src, "TaskFailedMsg");
  return m;
}

Frame HeartbeatMsg::encode() const {
  Frame f{FrameType::kHeartbeat, {}};
  MemorySink sink(f.payload);
  writeU32(sink, worker_id);
  writeU64(sink, seq);
  return f;
}

HeartbeatMsg HeartbeatMsg::decode(const Frame& frame) {
  checkType(frame, FrameType::kHeartbeat, "HeartbeatMsg");
  MemorySource src = bodySource(frame);
  HeartbeatMsg m;
  m.worker_id = readU32(src);
  m.seq = readU64(src);
  checkDrained(src, "HeartbeatMsg");
  return m;
}

Frame FetchRequestMsg::encode() const {
  Frame f{FrameType::kFetchRequest, {}};
  MemorySink sink(f.payload);
  writeU32(sink, map_index);
  writeU32(sink, reducer);
  return f;
}

FetchRequestMsg FetchRequestMsg::decode(const Frame& frame) {
  checkType(frame, FrameType::kFetchRequest, "FetchRequestMsg");
  MemorySource src = bodySource(frame);
  FetchRequestMsg m;
  m.map_index = readU32(src);
  m.reducer = readU32(src);
  checkDrained(src, "FetchRequestMsg");
  return m;
}

Frame FetchResponseMsg::encode() const {
  Frame f{FrameType::kFetchResponse, {}};
  MemorySink sink(f.payload);
  writeU32(sink, map_index);
  writeU32(sink, reducer);
  writeU32(sink, static_cast<u32>(segment.size()));
  sink.write(ByteSpan(segment.data(), segment.size()));
  return f;
}

FetchResponseMsg FetchResponseMsg::decode(const Frame& frame) {
  checkType(frame, FrameType::kFetchResponse, "FetchResponseMsg");
  MemorySource src = bodySource(frame);
  FetchResponseMsg m;
  m.map_index = readU32(src);
  m.reducer = readU32(src);
  const u32 size = readU32(src);
  checkFormat(size <= src.remaining(), "FetchResponseMsg segment size exceeds body");
  m.segment.resize(size);
  src.readExact(MutableByteSpan(m.segment.data(), m.segment.size()));
  checkDrained(src, "FetchResponseMsg");
  return m;
}

Frame FetchErrorMsg::encode() const {
  Frame f{FrameType::kFetchError, {}};
  MemorySink sink(f.payload);
  writeU32(sink, map_index);
  writeU32(sink, reducer);
  writeText(sink, error);
  return f;
}

FetchErrorMsg FetchErrorMsg::decode(const Frame& frame) {
  checkType(frame, FrameType::kFetchError, "FetchErrorMsg");
  MemorySource src = bodySource(frame);
  FetchErrorMsg m;
  m.map_index = readU32(src);
  m.reducer = readU32(src);
  m.error = readBodyText(src);
  checkDrained(src, "FetchErrorMsg");
  return m;
}

Frame ServiceRequestMsg::encode() const {
  Frame f{FrameType::kServiceRequest, {}};
  MemorySink sink(f.payload);
  writeText(sink, line);
  return f;
}

ServiceRequestMsg ServiceRequestMsg::decode(const Frame& frame) {
  checkType(frame, FrameType::kServiceRequest, "ServiceRequestMsg");
  MemorySource src = bodySource(frame);
  ServiceRequestMsg m;
  m.line = readBodyText(src);
  checkDrained(src, "ServiceRequestMsg");
  return m;
}

Frame ServiceReplyMsg::encode() const {
  Frame f{FrameType::kServiceReply, {}};
  MemorySink sink(f.payload);
  writeText(sink, text);
  return f;
}

ServiceReplyMsg ServiceReplyMsg::decode(const Frame& frame) {
  checkType(frame, FrameType::kServiceReply, "ServiceReplyMsg");
  MemorySource src = bodySource(frame);
  ServiceReplyMsg m;
  m.text = readBodyText(src);
  checkDrained(src, "ServiceReplyMsg");
  return m;
}

Frame shutdownFrame() { return Frame{FrameType::kShutdown, {}}; }

}  // namespace scishuffle::net
