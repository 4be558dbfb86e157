#include "hadoop/ifile.h"

#include <limits>

#include "io/crc32.h"
#include "io/primitives.h"
#include "io/varint.h"

namespace scishuffle::hadoop {

namespace {

/// The record stream of a plain IFile: everything before the CRC trailer.
ByteSpan ifileBody(ByteSpan file) {
  checkFormat(file.size() >= kIFileTrailerSize, "IFile too short");
  return file.first(file.size() - 4);
}

}  // namespace

std::size_t ifileRecordOverhead(std::size_t keyLen, std::size_t valueLen) {
  return vlongSize(static_cast<i64>(keyLen)) + vlongSize(static_cast<i64>(valueLen));
}

void IFileWriter::append(ByteSpan key, ByteSpan value) {
  check(!closed_, "append after close");
  MemorySink sink(payload_);
  writeVInt(sink, static_cast<i32>(key.size()));
  writeVInt(sink, static_cast<i32>(value.size()));
  sink.write(key);
  sink.write(value);
  ++records_;
}

Bytes IFileWriter::close() {
  check(!closed_, "double close");
  closed_ = true;
  MemorySink sink(payload_);
  writeVInt(sink, -1);
  writeVInt(sink, -1);
  const u32 crc = crc32(payload_);
  writeU32(sink, crc);
  return std::move(payload_);
}

IFileReader::IFileReader(ByteSpan file) : source_(ifileBody(file)) {
  MemorySource trailer(file.last(4));
  checkFormat(crc32(file.first(file.size() - 4)) == readU32(trailer), "IFile checksum mismatch");
}

void IFileBlockWriter::append(ByteSpan key, ByteSpan value) {
  check(!closed_, "append after close");
  scratch_.clear();
  MemorySink lengths(scratch_);
  writeVInt(lengths, static_cast<i32>(key.size()));
  writeVInt(lengths, static_cast<i32>(value.size()));
  writer_.write(scratch_);
  writer_.write(key);
  writer_.write(value);
  ++records_;
}

Bytes IFileBlockWriter::close() {
  check(!closed_, "double close");
  closed_ = true;
  scratch_.clear();
  MemorySink marker(scratch_);
  writeVInt(marker, -1);
  writeVInt(marker, -1);
  writer_.write(scratch_);
  return writer_.close();
}

std::optional<RecordView> IFileStreamReader::next() {
  if (done_) return std::nullopt;
  // In place when both lengths and the whole record lie in the source's
  // window. Anything else (a record running past the window's end, a
  // negative or out-of-range length) takes the byte-wise path, which raises
  // the same FormatErrors at the same offsets.
  const ByteSpan window = source_->buffered();
  i64 keyLen = 0;
  i64 valueLen = 0;
  const std::size_t keyHeader = decodeVLong(window, keyLen);
  if (keyHeader == 0) return readChecked();
  const std::size_t valueHeader = decodeVLong(window.subspan(keyHeader), valueLen);
  if (valueHeader == 0) return readChecked();
  const std::size_t header = keyHeader + valueHeader;
  if (keyLen == -1 && valueLen == -1) {
    source_->skip(header);
    done_ = true;
    return std::nullopt;
  }
  constexpr i64 kMaxLen = std::numeric_limits<i32>::max();
  const ByteSpan body = window.subspan(header);
  if (keyLen < 0 || valueLen < 0 || keyLen > kMaxLen || valueLen > kMaxLen ||
      static_cast<u64>(keyLen + valueLen) > body.size()) {
    return readChecked();
  }
  const auto keyBytes = static_cast<std::size_t>(keyLen);
  const auto valueBytes = static_cast<std::size_t>(valueLen);
  source_->skip(header + keyBytes + valueBytes);
  return RecordView{body.first(keyBytes), body.subspan(keyBytes, valueBytes)};
}

std::optional<RecordView> IFileStreamReader::readChecked() {
  const i32 keyLen = readVInt(*source_);
  const i32 valueLen = readVInt(*source_);
  if (keyLen == -1 && valueLen == -1) {
    done_ = true;
    return std::nullopt;
  }
  checkFormat(keyLen >= 0 && valueLen >= 0, "negative record length");
  // Key and value share one buffer: a key left in a block that the value's
  // read then replaced would dangle.
  const auto keyBytes = static_cast<std::size_t>(keyLen);
  scratch_.resize(keyBytes + static_cast<std::size_t>(valueLen));
  source_->readExact(scratch_);
  const ByteSpan record(scratch_);
  return RecordView{record.first(keyBytes), record.subspan(keyBytes)};
}

}  // namespace scishuffle::hadoop
