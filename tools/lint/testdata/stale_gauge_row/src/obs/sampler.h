// Fixture: both constants are documented and referenced; the docs tables
// also keep a gauge row and an event row whose constants were deleted.
#pragma once

namespace gauge {
inline constexpr const char* kProcessRssBytes = "process.rss_bytes";
}  // namespace gauge

namespace event {
inline constexpr const char* kTaskRetry = "task.retry";
}  // namespace event
