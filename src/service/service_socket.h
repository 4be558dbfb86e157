// UNIX-domain socket front-end for the JobService: a text control protocol
// so `scishuffle_cli submit/jobs/cancel/shutdown` can talk to a long-running
// `scishuffle_cli serve` process.
//
// Protocol (one request per connection; the request travels as one
// kServiceRequest frame and the reply as one kServiceReply frame over the
// net/ transport, docs/FORMATS.md):
//   submit <priority> <spec args...>   -> "ok id=N" | "rejected id=N <why>"
//   status <id>                        -> "<id> <state> <name> wait_us=... <err>"
//   list                               -> one status line per job, then "end"
//   wait <id>                          -> blocks; then a status line
//   cancel <id>                        -> "ok" | "error unknown or terminal job"
//   shutdown                           -> "ok"; serve loop drains and exits
// Anything malformed -> "error <message>". A frame that fails its CRC or
// header checks, has the wrong type, or never arrives closes the connection
// without a reply; a client that leaves mid-request costs the server nothing.
//
// The endpoint knows nothing about building jobs: the host supplies a
// SpecBuilder that turns the submit arguments into a JobSpec (the CLI's
// builder understands its synthetic workloads; tests plug in their own).
#pragma once

#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "io/annotations.h"
#include "net/socket.h"
#include "service/job_service.h"

namespace scishuffle::service {

/// Builds a JobSpec from the whitespace-split arguments after
/// `submit <priority>`. Returns false (with `error` set) for unknown specs.
/// Must be thread-safe: connections are served concurrently.
using SpecBuilder = std::function<bool(const std::vector<std::string>& args, JobSpec& spec,
                                       std::string& error)>;

class ServiceEndpoint {
 public:
  /// Binds and listens on `socketPath` (unlinking any stale socket first)
  /// and serves connections on background threads until stop().
  ServiceEndpoint(JobService& service, std::filesystem::path socketPath, SpecBuilder builder);
  ~ServiceEndpoint();

  ServiceEndpoint(const ServiceEndpoint&) = delete;
  ServiceEndpoint& operator=(const ServiceEndpoint&) = delete;

  /// Blocks until a client sent `shutdown` (or stop() was called). The serve
  /// loop then typically calls service.shutdown() and endpoint stop().
  void waitUntilShutdownRequested();

  /// Same effect as a client sending `shutdown`: wakes
  /// waitUntilShutdownRequested(). Used by the serve loop's signal handlers
  /// (service/signals.h) so Ctrl-C drains instead of killing the process.
  void requestShutdown();

  /// Stops accepting, joins every connection thread, unlinks the socket.
  /// Idempotent.
  void stop();

  const std::filesystem::path& socketPath() const { return listener_.socketPath(); }

  /// Client side: one round trip — connect, send `line`, return the reply
  /// text. Throws IoError on connect/IO failure or when the endpoint closes
  /// the connection without replying.
  static std::string request(const std::filesystem::path& socketPath, const std::string& line);

 private:
  void acceptLoop();
  void serveConnection(net::Connection conn);
  std::string handleRequest(const std::string& line);

  JobService& service_;
  const SpecBuilder builder_;
  net::Listener listener_;

  mutable Mutex mu_{lock_rank::kServiceEndpoint};
  CondVar shutdownCv_;
  bool shutdownRequested_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> conns_ GUARDED_BY(mu_);
  std::thread acceptor_;  // joined by stop()
};

}  // namespace scishuffle::service
