#include "io/streams.h"

#include <algorithm>
#include <cstring>

namespace scishuffle {

void ByteSource::readExact(MutableByteSpan out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const std::size_t n = read(out.subspan(got));
    checkFormat(n > 0, "unexpected end of stream");
    got += n;
  }
}

int ByteSource::readByte() {
  u8 b = 0;
  return read(MutableByteSpan(&b, 1)) == 1 ? static_cast<int>(b) : -1;
}

Bytes ByteSource::readAll() {
  Bytes out;
  u8 chunk[16 * 1024];
  for (;;) {
    const std::size_t n = read(MutableByteSpan(chunk, sizeof chunk));
    if (n == 0) break;
    out.insert(out.end(), chunk, chunk + n);
  }
  return out;
}

std::size_t MemorySource::readSome(MutableByteSpan out) {
  const std::size_t n = std::min(out.size(), data_.size() - pos_);
  // An empty span's data() may be null, and memcpy from null is UB even for n == 0.
  if (n != 0) std::memcpy(out.data(), data_.data() + pos_, n);
  pos_ += n;
  return n;
}

FileSink::FileSink(const std::filesystem::path& path)
    : file_(std::fopen(path.string().c_str(), "wb")) {
  checkFormat(file_ != nullptr, "cannot open file for writing");
}

void FileSink::write(ByteSpan data) {
  const std::size_t n = std::fwrite(data.data(), 1, data.size(), file_.get());
  checkFormat(n == data.size(), "short write");
}

void FileSink::flush() { std::fflush(file_.get()); }

FileSource::FileSource(const std::filesystem::path& path)
    : file_(std::fopen(path.string().c_str(), "rb")) {
  checkFormat(file_ != nullptr, "cannot open file for reading");
}

std::size_t FileSource::readSome(MutableByteSpan out) {
  return std::fread(out.data(), 1, out.size(), file_.get());
}

}  // namespace scishuffle
