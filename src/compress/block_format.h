// Block-framed codec container: wraps any registered Codec into a
// self-describing stream of independently decompressible blocks,
//
//     stream := "SBF1" u8(version=2) block* vlong(-1) vlong(blockCount)
//     block  := vlong(rawLen) vlong(compLen) u32(crc32(raw)) payload[compLen]
//
// (see docs/FORMATS.md). Because every block carries its own lengths and
// checksum, compression and decompression of one stream can fan out across a
// ThreadPool — this is what makes the shuffle's codec work parallelizable,
// the same reason real Hadoop deployments lean on splittable block codecs
// like LZO instead of whole-stream gzip. A corrupt block raises FormatError
// naming the block index and stream offset instead of garbling the rest of
// the stream. The v2 trailer (block count after the end marker, then exact
// end of stream) exists so a bit flip that forges the end marker — a rawLen
// byte flipped to 0xFF reads as vlong(-1) — is detected instead of silently
// truncating the stream.
#pragma once

#include <atomic>
#include <deque>
#include <future>
#include <optional>
#include <vector>

#include "compress/codec.h"
#include "io/streams.h"
#include "io/thread_pool.h"

namespace scishuffle {

namespace testing {
class FaultInjector;
}

inline constexpr u8 kBlockFrameMagic[4] = {'S', 'B', 'F', '1'};
inline constexpr u8 kBlockFrameVersion = 2;
inline constexpr std::size_t kBlockFrameDefaultBlockBytes = 256u << 10;

/// Streams raw bytes into a block-framed container. A block is sealed every
/// `blockBytes` of input; with a pool, sealed blocks compress concurrently
/// and close() assembles them in order, so output bytes are identical to the
/// serial path. close() waits through ThreadPool::await, so the closing
/// thread compresses queued blocks too. `codec == nullptr` stores blocks
/// uncompressed (still framed).
class BlockCompressedWriter {
 public:
  explicit BlockCompressedWriter(const Codec* codec,
                                 std::size_t blockBytes = kBlockFrameDefaultBlockBytes,
                                 ThreadPool* pool = nullptr);

  /// An abandoned writer (a map attempt that throws mid-spill, between
  /// write() and close()) joins its in-flight compression tasks, which
  /// capture `this`.
  ~BlockCompressedWriter();

  BlockCompressedWriter(const BlockCompressedWriter&) = delete;
  BlockCompressedWriter& operator=(const BlockCompressedWriter&) = delete;

  void write(ByteSpan data);

  /// Flushes the tail block and the end marker; no writes afterwards.
  Bytes close();

  /// Raw (pre-compression) bytes accepted so far.
  u64 rawBytes() const { return rawBytes_; }
  u64 blocksWritten() const { return blocks_; }

  /// Summed per-block thread CPU spent inside the codec, on whichever thread
  /// compressed each block (the serial cost even when blocks compress in
  /// parallel — the cluster cost model needs CPU work, not wall time).
  u64 compressCpuUs() const { return cpuUs_.load(std::memory_order_relaxed); }

 private:
  struct Sealed {
    u64 rawLen = 0;
    u32 crc = 0;
    Bytes compressed;
  };

  void seal();
  Sealed compressBlock(Bytes raw) const;

  const Codec* codec_;
  std::size_t blockBytes_;
  ThreadPool* pool_;
  Bytes pending_;
  std::vector<Sealed> sealed_;                  // serial path
  std::vector<std::future<Sealed>> inFlight_;   // pooled path, in seal order
  mutable std::atomic<u64> cpuUs_{0};
  u64 rawBytes_ = 0;
  u64 blocks_ = 0;
  bool closed_ = false;
};

/// Sequential reader over a block-framed stream; one decoded block at a time.
class BlockCompressedReader {
 public:
  /// Validates magic + version eagerly; throws FormatError on mismatch.
  /// `faults` (optional, test-only) injects block.decode faults before each
  /// frame decode.
  BlockCompressedReader(ByteSpan stream, const Codec* codec,
                        testing::FaultInjector* faults = nullptr);

  /// Decodes the next block, or nullopt after the end marker. Throws
  /// FormatError (with block index and offset) on truncation, a corrupt
  /// frame, or a CRC mismatch.
  std::optional<Bytes> nextBlock();

  bool done() const { return done_; }
  std::size_t blocksRead() const { return blocks_; }
  /// Summed per-block thread CPU spent decoding, on whichever thread decoded.
  u64 decompressCpuUs() const { return cpuUs_.load(std::memory_order_relaxed); }

  /// Frame header of one block (parsed, not yet decoded).
  struct Frame {
    u64 rawLen = 0;
    u32 crc = 0;
    ByteSpan payload;
    std::size_t index = 0;   // block ordinal in the stream
    std::size_t offset = 0;  // byte offset of the frame in the stream
  };

  /// Advances past the next frame without decoding it; nullopt at the end
  /// marker. Used by BlockDecodeSource to decode ahead on a pool.
  std::optional<Frame> nextFrame();

  /// Decompresses and CRC-checks a frame returned by nextFrame(). Safe to
  /// call from several threads at once, also for one reader: it reads only
  /// the frame and immutable members, adds its CPU to an atomic, and the
  /// codecs and the fault injector are safe to call concurrently.
  Bytes decodeFrame(const Frame& frame) const;

 private:
  ByteSpan stream_;
  const Codec* codec_;
  testing::FaultInjector* faults_;
  std::size_t pos_ = 0;
  std::size_t blocks_ = 0;
  bool done_ = false;
  mutable std::atomic<u64> cpuUs_{0};
};

/// ByteSource over a block-framed stream that holds only the current decoded
/// block plus, when a pool is given, the blocks decoding ahead: two with a
/// codec, one with `codec == nullptr`, whose decode is only a copy and a CRC.
/// This is what bounds reduce-side merge memory to O(segments x block size).
/// The reader waits through ThreadPool::await, so it decodes queued blocks
/// itself instead of idling behind the pool's backlog.
class BlockDecodeSource final : public ByteSource {
 public:
  explicit BlockDecodeSource(ByteSpan stream, const Codec* codec,
                             ThreadPool* prefetchPool = nullptr,
                             testing::FaultInjector* faults = nullptr);
  ~BlockDecodeSource() override;

  u64 decompressCpuUs() const { return reader_.decompressCpuUs(); }

  /// High-water mark of decoded bytes held at once (current block plus the
  /// decode-ahead blocks in flight).
  u64 residentPeakBytes() const { return residentPeak_; }

  /// The rest of the current decoded block; loads the next block first when
  /// the current one is used up, which ends the previous window's life.
  ByteSpan buffered() override;

 protected:
  std::size_t readSome(MutableByteSpan out) override;
  void skipBuffered(std::size_t n) override { pos_ += n; }

 private:
  struct Ahead {
    std::future<Bytes> block;
    u64 rawLen = 0;
  };

  bool advance();          // loads the next block into current_
  void scheduleAhead();    // tops the decode-ahead blocks up to aheadLimit_

  BlockCompressedReader reader_;
  ThreadPool* pool_;
  std::size_t aheadLimit_;
  Bytes current_;
  std::size_t pos_ = 0;
  std::deque<Ahead> ahead_;  // in stream order
  u64 residentPeak_ = 0;
  bool exhausted_ = false;
};

/// One-shot helpers. blockCompress fans per-block codec work across `pool`
/// when given; output bytes are identical either way. Both accumulate codec
/// CPU time into *cpuUs when non-null.
Bytes blockCompress(ByteSpan raw, const Codec* codec,
                    std::size_t blockBytes = kBlockFrameDefaultBlockBytes,
                    ThreadPool* pool = nullptr, u64* cpuUs = nullptr);
Bytes blockDecompressAll(ByteSpan stream, const Codec* codec, u64* cpuUs = nullptr);

/// Codec CPU the calling thread has spent in blocks it (de)compressed itself,
/// under any writer or reader, in microseconds. A task subtracts what this
/// grows by from its own thread CPU, so each codec microsecond is counted
/// once, under the codec counters, wherever its block ran.
u64 codecCpuUsOnThisThread();

}  // namespace scishuffle
