// Fixture: kShadow was appended to the enum but never documented.
#pragma once

namespace scishuffle::net {

enum class FrameType : unsigned char {
  kHello = 1,   // worker -> coordinator
  kAssign = 2,  // coordinator -> worker
  kShadow = 3,  // undocumented
};

}  // namespace scishuffle::net
