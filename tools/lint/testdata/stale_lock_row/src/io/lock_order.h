// Fixture hierarchy: kAlpha is declared and documented; docs/LOCK_ORDER.md
// still lists a level whose declaration was deleted.
#pragma once

struct LockLevel {
  int rank = 0;
  const char* name = nullptr;
};

namespace lock_rank {

inline constexpr LockLevel kAlpha{10, "test.alpha"};

}  // namespace lock_rank
