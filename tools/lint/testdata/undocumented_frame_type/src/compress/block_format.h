// Fixture: a consistent SBF1 container, so only the frame-type check fires.
//
//     stream := "SBF1" u8(version=2) block* vlong(-1) vlong(blockCount)
//
#pragma once

inline constexpr unsigned char kBlockFrameMagic[4] = {'S', 'B', 'F', '1'};
inline constexpr unsigned char kBlockFrameVersion = 2;
