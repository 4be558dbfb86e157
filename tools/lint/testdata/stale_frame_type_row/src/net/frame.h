// Fixture: the doc table still lists kRetired, which this enum no longer
// declares, and gives kAssign a value this enum does not.
#pragma once

namespace scishuffle::net {

enum class FrameType : unsigned char {
  kHello = 1,   // worker -> coordinator
  kAssign = 2,  // coordinator -> worker
};

}  // namespace scishuffle::net
