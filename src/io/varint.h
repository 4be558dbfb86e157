// Variable-length integer encoding with Hadoop WritableUtils semantics.
//
// This is the exact encoding Hadoop's IFile uses for record key/value lengths,
// which is what gives intermediate files their "2 bytes of framing per small
// record" overhead that the paper's Fig. 8 measures:
//   * values in [-112, 127] occupy a single byte;
//   * otherwise a prefix byte encodes sign and byte count, followed by the
//     magnitude big-endian with leading zeros stripped.
#pragma once

#include "io/common.h"
#include "io/streams.h"

namespace scishuffle {

/// Serializes v using Hadoop's writeVLong format.
void writeVLong(ByteSink& sink, i64 v);
inline void writeVInt(ByteSink& sink, i32 v) { writeVLong(sink, v); }

/// Reads a value written by writeVLong. Throws FormatError at EOF/corruption;
/// the message names the stream offset where the vlong started.
i64 readVLong(ByteSource& source);
i32 readVInt(ByteSource& source);

/// Decodes a vlong from the front of `data` without a stream: stores it in
/// `value` and returns its encoded size, or returns 0 when `data` ends
/// inside the encoding. Inline: record readers call it twice per record.
inline std::size_t decodeVLong(ByteSpan data, i64& value) {
  if (data.empty()) return 0;
  const auto first = static_cast<i8>(data[0]);
  if (first >= -112) {
    value = first;
    return 1;
  }
  const bool negative = first < -120;
  const auto total = static_cast<std::size_t>(negative ? -(first + 120) : -(first + 112)) + 1;
  if (data.size() < total) return 0;
  u64 mag = 0;
  for (std::size_t i = 1; i < total; ++i) mag = (mag << 8) | data[i];
  value = negative ? static_cast<i64>(~mag) : static_cast<i64>(mag);
  return total;
}

/// Number of bytes writeVLong would produce.
std::size_t vlongSize(i64 v);

/// True if b is the first byte of a negative vlong (used to spot IFile's
/// end-of-file marker, which is the pair of lengths (-1, -1)).
bool vlongFirstByteIsNegative(u8 b);

}  // namespace scishuffle
