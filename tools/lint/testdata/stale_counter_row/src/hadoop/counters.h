// Fixture: the counter table still lists a counter removed from this header.
#pragma once

namespace counter {
inline constexpr const char* kMapOutputRecords = "MAP_OUTPUT_RECORDS";
}  // namespace counter
