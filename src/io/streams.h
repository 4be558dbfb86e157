// Minimal stream abstractions: a ByteSink accepts bytes, a ByteSource yields
// them (and, when it holds them in memory, lends them in place through a
// zero-copy window). Memory-backed and file-backed implementations are
// provided, plus a counting sink that discards what it is given.
#pragma once

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "io/common.h"

namespace scishuffle {

/// Destination for a stream of bytes.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  virtual void write(ByteSpan data) = 0;

  /// Flush buffered data to the underlying medium (no-op by default).
  virtual void flush() {}

  void writeByte(u8 b) { write(ByteSpan(&b, 1)); }
};

/// Source of a stream of bytes.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Reads up to out.size() bytes; returns the number read (0 at EOF).
  std::size_t read(MutableByteSpan out) {
    const std::size_t n = readSome(out);
    consumed_ += n;
    return n;
  }

  /// Bytes handed out so far; lets format readers report the stream offset
  /// of a decode error on any source, not just memory-backed ones.
  u64 consumed() const { return consumed_; }

  /// Reads exactly out.size() bytes or throws FormatError on truncation.
  void readExact(MutableByteSpan out);

  /// Reads one byte; returns -1 at EOF.
  int readByte();

  /// Drains the remainder of the stream.
  Bytes readAll();

  /// Zero-copy window: the bytes from the read position on that the source
  /// already holds in memory, for a reader to parse in place. Empty when
  /// the source keeps no such buffer (the default) or has no bytes left.
  /// The span stays valid until the next read, skip() or buffered() call.
  virtual ByteSpan buffered() { return {}; }

  /// Consumes the first n bytes of buffered() (n must not exceed its size).
  void skip(std::size_t n) {
    skipBuffered(n);
    consumed_ += n;
  }

 protected:
  virtual std::size_t readSome(MutableByteSpan out) = 0;
  /// Advances past n bytes of the window buffered() returned last.
  virtual void skipBuffered(std::size_t /*n*/) {}

 private:
  u64 consumed_ = 0;
};

/// Appends to an in-memory buffer owned elsewhere.
class MemorySink final : public ByteSink {
 public:
  explicit MemorySink(Bytes& out) : out_(&out) {}
  void write(ByteSpan data) override { out_->insert(out_->end(), data.begin(), data.end()); }

 private:
  Bytes* out_;
};

/// Reads from a borrowed byte span.
class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(ByteSpan data) : data_(data) {}
  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  ByteSpan buffered() override { return data_.subspan(pos_); }

 protected:
  std::size_t readSome(MutableByteSpan out) override;
  void skipBuffered(std::size_t n) override { pos_ += n; }

 private:
  ByteSpan data_;
  std::size_t pos_ = 0;
};

/// Buffered file writer (RAII; flushes and closes on destruction).
class FileSink final : public ByteSink {
 public:
  explicit FileSink(const std::filesystem::path& path);
  void write(ByteSpan data) override;
  void flush() override;

 private:
  struct Closer {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, Closer> file_;
};

/// Buffered file reader.
class FileSource final : public ByteSource {
 public:
  explicit FileSource(const std::filesystem::path& path);

 protected:
  std::size_t readSome(MutableByteSpan out) override;

 private:
  struct Closer {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, Closer> file_;
};

/// Sink that discards everything but keeps the byte count; handy for sizing.
class NullSink final : public ByteSink {
 public:
  void write(ByteSpan data) override { count_ += data.size(); }
  u64 count() const { return count_; }

 private:
  u64 count_ = 0;
};

}  // namespace scishuffle
