// Fixture: a transport site, listed in the table like the core sites.
#pragma once

namespace site {
inline constexpr const char* kNetConnect = "net.connect";
}  // namespace site
