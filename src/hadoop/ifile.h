// IFile: Hadoop's intermediate file format, reproduced byte-for-byte in
// structure. Every record pays
//     vint(keyLen) + vint(valueLen) + key + value
// and the stream ends with the (-1, -1) end marker plus a 4-byte checksum.
// This per-record framing is exactly the "file overhead" bar of Fig. 8 and
// part of the 26-bytes-per-record arithmetic of §I (see DESIGN.md §3).
//
// IFileWriter / IFileReader hold the plain framing: the record stream plus a
// CRC-32 trailer, uncompressed (the byte counts §I and Fig. 8 reason about).
// Shuffle segments wrap the same record stream in the block-framed codec
// container (compress/block_format.h): records stream through
// IFileBlockWriter into independently decompressible blocks, and
// IFileStreamReader parses records back out of any ByteSource one block at a
// time, lending each one in place in the decoded block.
#pragma once

#include "compress/block_format.h"
#include "hadoop/types.h"

namespace scishuffle::hadoop {

/// Serialized-size helper: framing cost of one record.
std::size_t ifileRecordOverhead(std::size_t keyLen, std::size_t valueLen);

/// Size of the end-of-file marker plus checksum.
constexpr std::size_t kIFileTrailerSize = 2 + 4;

/// Parses IFile records from any ByteSource (typically a BlockDecodeSource,
/// so only the current block is resident). Throws FormatError on truncation.
class IFileStreamReader {
 public:
  explicit IFileStreamReader(ByteSource& source) : source_(&source) {}

  /// Next record, or nullopt at the (-1, -1) end marker. The view is lent:
  /// it points into the source's window when the whole record lies there,
  /// else into this reader's scratch buffer, and stays valid until the next
  /// call (which may load the source's next block).
  std::optional<RecordView> next();

 private:
  /// The byte-wise path: a record that straddles the window's end, a
  /// malformed length, or truncation (with the same FormatErrors).
  std::optional<RecordView> readChecked();

  ByteSource* source_;
  Bytes scratch_;  // key and value of a record read byte-wise, back to back
  bool done_ = false;
};

/// Plain IFile: the uncompressed record stream plus its CRC-32 trailer.
class IFileWriter {
 public:
  void append(ByteSpan key, ByteSpan value);

  /// Finalizes the stream; no appends afterwards. Returns the file bytes
  /// (record stream + end marker + CRC trailer).
  Bytes close();

  u64 records() const { return records_; }

 private:
  Bytes payload_;
  u64 records_ = 0;
  bool closed_ = false;
};

class IFileReader {
 public:
  /// Validates the CRC trailer eagerly (FormatError on a mismatch or a file
  /// too short to hold one). Borrows `file`, which must outlive the reader.
  explicit IFileReader(ByteSpan file);
  // records_ points at source_, so a copy would read through the original.
  IFileReader(const IFileReader&) = delete;
  IFileReader& operator=(const IFileReader&) = delete;

  /// Next record, or nullopt at the end marker; throws FormatError on
  /// malformed framing. The view points into `file` and stays valid while
  /// `file` does.
  std::optional<RecordView> next() { return records_.next(); }

 private:
  MemorySource source_;
  IFileStreamReader records_{source_};
};

/// IFile record stream materialized as a block-framed codec container (the
/// shuffle segment format). Block boundaries fall every
/// `blockBytes` of raw record stream regardless of record boundaries; with a
/// pool, sealed blocks compress concurrently while records keep streaming in.
class IFileBlockWriter {
 public:
  IFileBlockWriter(const Codec* codec, std::size_t blockBytes, ThreadPool* pool = nullptr)
      : writer_(codec, blockBytes, pool) {}

  void append(ByteSpan key, ByteSpan value);

  /// Writes the (-1, -1) end marker and finalizes the container.
  Bytes close();

  u64 rawBytes() const { return writer_.rawBytes(); }
  u64 records() const { return records_; }
  u64 compressCpuUs() const { return writer_.compressCpuUs(); }

 private:
  BlockCompressedWriter writer_;
  Bytes scratch_;
  u64 records_ = 0;
  bool closed_ = false;
};

}  // namespace scishuffle::hadoop
