// Simple (per-point) grid keys: SciHadoop's baseline representation that the
// paper's §I arithmetic is about. A key identifies a variable — by small
// integer index (4 bytes) or by name (Hadoop Text, len-prefixed) — plus one
// signed 32-bit coordinate per dimension.
//
// Coordinates are serialized in "sortable big-endian" (offset-binary: the
// sign bit flipped), so the engine's default lexicographic byte order equals
// numeric order even for the negative coordinates sliding windows emit.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "grid/shape.h"
#include "io/common.h"

namespace scishuffle::scikey {

enum class VariableTag { kIndex, kName };

struct SimpleKey {
  i32 varIndex = 0;        // used in kIndex mode
  std::string varName;     // used in kName mode
  grid::Coord coords;

  bool operator==(const SimpleKey&) const = default;
};

Bytes serializeSimpleKey(const SimpleKey& key, VariableTag tag);
SimpleKey deserializeSimpleKey(ByteSpan data, VariableTag tag, int rank);

/// Serialized size without materializing (used by the overhead benches).
std::size_t simpleKeySize(const SimpleKey& key, VariableTag tag);

/// Encodes/decodes one sortable-big-endian i32 (shared with aggregate keys).
void appendSortableI32(Bytes& out, i32 v);
i32 readSortableI32(ByteSpan data, std::size_t offset);

/// A simple key's coordinate part: one sortable i32 per dimension, each
/// checked to fit. serializeSimpleKey appends through it, and so do map
/// closures that hold a coordinate but no SimpleKey.
void appendSimpleKeyCoords(Bytes& out, std::span<const i64> coords);

/// Reads `coords.size()` coordinates starting at `offset`, which must end
/// the key (FormatError otherwise). deserializeSimpleKey reads through it, and
/// the simple-key router reads a key's coordinates in place with it.
void readSimpleKeyCoords(ByteSpan data, std::size_t offset, std::span<i64> coords);

}  // namespace scishuffle::scikey
