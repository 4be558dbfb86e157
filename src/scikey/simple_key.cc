#include "scikey/simple_key.h"

#include "io/primitives.h"
#include "io/streams.h"

namespace scishuffle::scikey {

void appendSortableI32(Bytes& out, i32 v) {
  const u32 biased = static_cast<u32>(v) ^ 0x80000000u;
  out.push_back(static_cast<u8>(biased >> 24));
  out.push_back(static_cast<u8>(biased >> 16));
  out.push_back(static_cast<u8>(biased >> 8));
  out.push_back(static_cast<u8>(biased));
}

i32 readSortableI32(ByteSpan data, std::size_t offset) {
  checkFormat(offset + 4 <= data.size(), "truncated sortable i32");
  u32 biased = 0;
  for (int i = 0; i < 4; ++i) biased = (biased << 8) | data[offset + static_cast<std::size_t>(i)];
  return static_cast<i32>(biased ^ 0x80000000u);
}

void appendSimpleKeyCoords(Bytes& out, std::span<const i64> coords) {
  for (const i64 c : coords) {
    check(c >= INT32_MIN && c <= INT32_MAX, "coordinate exceeds i32 key field");
    appendSortableI32(out, static_cast<i32>(c));
  }
}

void readSimpleKeyCoords(ByteSpan data, std::size_t offset, std::span<i64> coords) {
  for (i64& c : coords) {
    c = readSortableI32(data, offset);
    offset += 4;
  }
  checkFormat(offset == data.size(), "trailing bytes in simple key");
}

Bytes serializeSimpleKey(const SimpleKey& key, VariableTag tag) {
  Bytes out;
  out.reserve(simpleKeySize(key, tag));
  if (tag == VariableTag::kIndex) {
    appendSortableI32(out, key.varIndex);
  } else {
    MemorySink sink(out);
    writeText(sink, key.varName);
  }
  appendSimpleKeyCoords(out, key.coords);
  return out;
}

SimpleKey deserializeSimpleKey(ByteSpan data, VariableTag tag, int rank) {
  SimpleKey key;
  std::size_t pos = 0;
  if (tag == VariableTag::kIndex) {
    key.varIndex = readSortableI32(data, 0);
    pos = 4;
  } else {
    MemorySource source(data);
    key.varName = readText(source);
    pos = source.position();
  }
  key.coords.resize(static_cast<std::size_t>(rank));
  readSimpleKeyCoords(data, pos, key.coords);
  return key;
}

std::size_t simpleKeySize(const SimpleKey& key, VariableTag tag) {
  const std::size_t varPart = tag == VariableTag::kIndex ? 4 : textSize(key.varName);
  return varPart + 4 * key.coords.size();
}

}  // namespace scishuffle::scikey
