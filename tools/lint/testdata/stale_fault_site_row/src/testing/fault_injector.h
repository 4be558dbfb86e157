// Fixture: the site table still lists a site removed from this header.
#pragma once

namespace site {
inline constexpr const char* kDfsRead = "dfs.read";
}  // namespace site
