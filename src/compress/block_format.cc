// Concurrency note: this file's parallelism is structured as fan-out over
// futures — sealed blocks and decode-ahead frames are owned by exactly one
// pool task (run by a worker or by a thread waiting in ThreadPool::await),
// results are joined through std::future, and the shared mutable state is
// the relaxed `cpuUs_` accounting atomic (the per-thread codec CPU tally is
// thread_local, so no thread reads another's). There is no mutex to
// annotate here; the thread-safety story is ownership transfer, checked
// dynamically by the TSan CI job (docs/STATIC_ANALYSIS.md §coverage).
#include "compress/block_format.h"

#include <string>

#include "io/clock.h"
#include "io/thread.h"
#include "io/crc32.h"
#include "io/primitives.h"
#include "io/varint.h"
#include "obs/trace.h"
#include "testing/fault_injector.h"

namespace scishuffle {

namespace {

[[noreturn]] void frameError(std::size_t index, std::size_t offset, const char* what) {
  throw FormatError("block frame " + std::to_string(index) + " at offset " +
                    std::to_string(offset) + ": " + what);
}

thread_local u64 t_codecCpuUs = 0;

/// Adds the thread CPU spent since `startUs` to a stream's total and to the
/// calling thread's tally.
void countCodecCpu(std::atomic<u64>& total, u64 startUs) {
  const u64 spent = threadCpuUs() - startUs;
  total.fetch_add(spent, std::memory_order_relaxed);
  t_codecCpuUs += spent;
}

}  // namespace

u64 codecCpuUsOnThisThread() { return t_codecCpuUs; }

// ---------------------------------------------------------------- writer

BlockCompressedWriter::BlockCompressedWriter(const Codec* codec, std::size_t blockBytes,
                                             ThreadPool* pool)
    : codec_(codec), blockBytes_(blockBytes), pool_(pool) {
  check(blockBytes_ >= 1, "block size must be at least one byte");
}

BlockCompressedWriter::Sealed BlockCompressedWriter::compressBlock(Bytes raw) const {
  Sealed s;
  s.rawLen = raw.size();
  s.crc = crc32(raw);
  obs::ScopedSpan span("block_compress", "codec");
  const u64 start = threadCpuUs();
  s.compressed = codec_ != nullptr ? codec_->compress(raw) : std::move(raw);
  countCodecCpu(cpuUs_, start);
  span.arg("raw_bytes", s.rawLen);
  span.arg("compressed_bytes", s.compressed.size());
  return s;
}

void BlockCompressedWriter::seal() {
  Bytes raw = std::move(pending_);
  pending_.clear();
  ++blocks_;
  if (pool_ != nullptr) {
    inFlight_.push_back(
        pool_->submitTask([this, raw = std::move(raw)]() mutable { return compressBlock(std::move(raw)); }));
  } else {
    sealed_.push_back(compressBlock(std::move(raw)));
  }
}

void BlockCompressedWriter::write(ByteSpan data) {
  check(!closed_, "write after close");
  rawBytes_ += data.size();
  while (!data.empty()) {
    if (pending_.empty()) pending_.reserve(blockBytes_);  // seal() moved the last one away
    const std::size_t room = blockBytes_ - pending_.size();
    const std::size_t take = std::min(room, data.size());
    pending_.insert(pending_.end(), data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take));
    data = data.subspan(take);
    if (pending_.size() == blockBytes_) seal();
  }
}

BlockCompressedWriter::~BlockCompressedWriter() {
  // A compression task captures `this`; never let it outlive us.
  for (auto& f : inFlight_) {
    try {
      awaitFuture(f);
    } catch (...) {
      // A compression error surfaces through close(); teardown ignores it.
    }
  }
}

Bytes BlockCompressedWriter::close() {
  check(!closed_, "double close");
  closed_ = true;
  if (!pending_.empty()) seal();

  Bytes out;
  MemorySink sink(out);
  sink.write(ByteSpan(kBlockFrameMagic, sizeof(kBlockFrameMagic)));
  sink.writeByte(kBlockFrameVersion);
  const auto emit = [&](Sealed s) {
    writeVLong(sink, static_cast<i64>(s.rawLen));
    writeVLong(sink, static_cast<i64>(s.compressed.size()));
    writeU32(sink, s.crc);
    sink.write(s.compressed);
  };
  for (auto& f : inFlight_) emit(pool_->await(f));  // in seal order: deterministic bytes
  inFlight_.clear();
  for (Sealed& s : sealed_) emit(std::move(s));
  sealed_.clear();
  writeVLong(sink, -1);
  // v2 trailer: total block count, so a forged end marker (one flipped bit in
  // a rawLen vlong) cannot silently truncate the stream.
  writeVLong(sink, static_cast<i64>(blocks_));
  return out;
}

// ---------------------------------------------------------------- reader

BlockCompressedReader::BlockCompressedReader(ByteSpan stream, const Codec* codec,
                                             testing::FaultInjector* faults)
    : stream_(stream), codec_(codec), faults_(faults) {
  checkFormat(stream_.size() >= sizeof(kBlockFrameMagic) + 1, "block frame stream too short");
  for (std::size_t i = 0; i < sizeof(kBlockFrameMagic); ++i) {
    checkFormat(stream_[i] == kBlockFrameMagic[i], "bad block frame magic");
  }
  checkFormat(stream_[sizeof(kBlockFrameMagic)] == kBlockFrameVersion,
              "unsupported block frame version");
  pos_ = sizeof(kBlockFrameMagic) + 1;
}

std::optional<BlockCompressedReader::Frame> BlockCompressedReader::nextFrame() {
  if (done_) return std::nullopt;
  const std::size_t offset = pos_;
  MemorySource source(stream_.subspan(pos_));
  i64 rawLen = 0;
  try {
    rawLen = readVLong(source);
  } catch (const FormatError&) {
    frameError(blocks_, offset, "truncated frame header (missing end marker?)");
  }
  if (rawLen < 0) {
    pos_ += source.position();
    // v2 trailer: block count after the end marker, then exact end of stream.
    MemorySource trailerSource(stream_.subspan(pos_));
    i64 count = 0;
    try {
      count = readVLong(trailerSource);
    } catch (const FormatError&) {
      frameError(blocks_, pos_, "truncated stream trailer");
    }
    pos_ += trailerSource.position();
    if (count < 0 || static_cast<u64>(count) != blocks_) {
      frameError(blocks_, pos_, "block count mismatch in stream trailer");
    }
    if (pos_ != stream_.size()) frameError(blocks_, pos_, "trailing bytes after stream trailer");
    done_ = true;
    return std::nullopt;
  }
  Frame frame;
  frame.index = blocks_;
  frame.offset = offset;
  frame.rawLen = static_cast<u64>(rawLen);
  i64 compLen = 0;
  try {
    compLen = readVLong(source);
    frame.crc = readU32(source);
  } catch (const FormatError&) {
    frameError(frame.index, offset, "truncated frame header");
  }
  if (compLen < 0) frameError(frame.index, offset, "negative compressed length");
  pos_ += source.position();
  if (stream_.size() - pos_ < static_cast<std::size_t>(compLen)) {
    frameError(frame.index, offset, "truncated block payload");
  }
  frame.payload = stream_.subspan(pos_, static_cast<std::size_t>(compLen));
  pos_ += static_cast<std::size_t>(compLen);
  ++blocks_;
  return frame;
}

Bytes BlockCompressedReader::decodeFrame(const Frame& frame) const {
  obs::ScopedSpan span("block_decode", "codec");
  span.arg("raw_bytes", frame.rawLen);
  span.arg("compressed_bytes", frame.payload.size());
  ByteSpan payload = frame.payload;
  Bytes mutated;
  if (faults_ != nullptr) {
    faults_->hit(testing::site::kBlockDecode);
    mutated.assign(frame.payload.begin(), frame.payload.end());
    faults_->mutate(testing::site::kBlockDecode, mutated);
    payload = mutated;
  }
  Bytes raw;
  const u64 start = threadCpuUs();
  if (codec_ != nullptr) {
    try {
      raw = codec_->decompress(payload);
    } catch (const FormatError&) {
      frameError(frame.index, frame.offset, "codec failed to decompress block");
    } catch (const std::length_error&) {
      // Corrupt input can drive a codec's output-size header absurd; surface
      // it as the same frame-level format error, not a crash.
      frameError(frame.index, frame.offset, "codec failed to decompress block");
    }
  } else {
    raw.assign(payload.begin(), payload.end());
  }
  countCodecCpu(cpuUs_, start);
  if (raw.size() != frame.rawLen) frameError(frame.index, frame.offset, "raw length mismatch");
  if (crc32(raw) != frame.crc) frameError(frame.index, frame.offset, "crc mismatch");
  return raw;
}

std::optional<Bytes> BlockCompressedReader::nextBlock() {
  auto frame = nextFrame();
  if (!frame) return std::nullopt;
  return decodeFrame(*frame);
}

// ---------------------------------------------------------------- source

BlockDecodeSource::BlockDecodeSource(ByteSpan stream, const Codec* codec, ThreadPool* prefetchPool,
                                     testing::FaultInjector* faults)
    : reader_(stream, codec, faults), pool_(prefetchPool), aheadLimit_(codec != nullptr ? 2 : 1) {}

BlockDecodeSource::~BlockDecodeSource() {
  // A decode-ahead task captures `this`; never let it outlive us.
  for (Ahead& ahead : ahead_) {
    try {
      awaitFuture(ahead.block);
    } catch (...) {
      // A decode error surfaces on the consuming path; teardown ignores it.
    }
  }
}

void BlockDecodeSource::scheduleAhead() {
  u64 resident = current_.size();
  for (const Ahead& ahead : ahead_) resident += ahead.rawLen;
  while (ahead_.size() < aheadLimit_) {
    auto frame = reader_.nextFrame();
    if (!frame) break;
    ahead_.push_back({pool_->submitTask([this, f = *frame] { return reader_.decodeFrame(f); }),
                      frame->rawLen});
    resident += frame->rawLen;
  }
  residentPeak_ = std::max(residentPeak_, resident);
}

bool BlockDecodeSource::advance() {
  if (exhausted_) return false;
  if (!ahead_.empty()) {
    Ahead next = std::move(ahead_.front());
    ahead_.pop_front();
    current_ = pool_->await(next.block);  // rethrows decode errors from the pool
  } else {
    auto block = reader_.nextBlock();
    if (!block) {
      exhausted_ = true;
      current_.clear();
      pos_ = 0;
      return false;
    }
    current_ = std::move(*block);
  }
  pos_ = 0;
  residentPeak_ = std::max(residentPeak_, static_cast<u64>(current_.size()));
  if (pool_ != nullptr) scheduleAhead();
  return true;
}

std::size_t BlockDecodeSource::readSome(MutableByteSpan out) {
  std::size_t total = 0;
  while (total < out.size()) {
    const ByteSpan window = buffered();
    if (window.empty()) break;
    const std::size_t take = std::min(out.size() - total, window.size());
    std::copy_n(window.begin(), take, out.begin() + static_cast<std::ptrdiff_t>(total));
    pos_ += take;
    total += take;
  }
  return total;
}

ByteSpan BlockDecodeSource::buffered() {
  while (pos_ == current_.size()) {
    if (!advance()) return {};  // a zero-length block loops to the next one
  }
  return ByteSpan(current_).subspan(pos_);
}

// ---------------------------------------------------------------- helpers

Bytes blockCompress(ByteSpan raw, const Codec* codec, std::size_t blockBytes, ThreadPool* pool,
                    u64* cpuUs) {
  BlockCompressedWriter writer(codec, blockBytes, pool);
  writer.write(raw);
  Bytes out = writer.close();
  if (cpuUs != nullptr) *cpuUs += writer.compressCpuUs();
  return out;
}

Bytes blockDecompressAll(ByteSpan stream, const Codec* codec, u64* cpuUs) {
  BlockCompressedReader reader(stream, codec);
  Bytes out;
  while (auto block = reader.nextBlock()) {
    out.insert(out.end(), block->begin(), block->end());
  }
  if (cpuUs != nullptr) *cpuUs += reader.decompressCpuUs();
  return out;
}

}  // namespace scishuffle
