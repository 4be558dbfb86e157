// UNIX-domain stream transport carrying net/frame.h frames between
// processes: the coordinator and its workers (control and data planes), and
// the job service endpoint and its CLI clients (service/service_socket.h).
//
// Connection::sendFrame / recvFrame move whole frames with CRC verification
// (sends never raise SIGPIPE: a departed peer is an IoError), Listener
// accepts connections, and connectUnix dials a peer. Every operation can be
// failed deterministically through the seeded FaultInjector: the `net.*`
// sites below model connection refusal, mid-frame truncation, byte
// corruption, and stalls (docs/FAULTS.md).
//
// POSIX-only (AF_UNIX); constructors throw on platforms without UNIX
// sockets.
#pragma once

#include <atomic>
#include <filesystem>
#include <string>

#include "io/annotations.h"
#include "net/frame.h"
#include "testing/fault_injector.h"

namespace scishuffle::net {

/// Transport fault-injection sites (tools/lint checks these stay documented
/// in docs/FAULTS.md, same as the testing/fault_injector.h sites).
namespace site {
/// Dialing a peer: kThrowIo models connection refused, kDelay a slow accept.
inline constexpr const char* kNetConnect = "net.connect";
/// Outbound frame: kTruncate cuts the wire bytes mid-frame (the peer sees a
/// reset), kCorruptBytes flips payload bits the peer's CRC then catches.
inline constexpr const char* kNetFrameSend = "net.frame.send";
/// Inbound frame: kThrowIo models a reset mid-read, kDelay a stalled peer,
/// kCorruptBytes/kTruncate damage the received bytes before decoding.
inline constexpr const char* kNetFrameRecv = "net.frame.recv";
/// Retry-policy site label for one whole reduce-side fetch (connect + request
/// + response); named in FailureReport / retry events, not injected directly.
inline constexpr const char* kNetFetch = "net.fetch";
}  // namespace site

/// One connected stream socket. Movable, not copyable; closes on destruction.
/// sendFrame is internally serialised so the heartbeat thread and the task
/// loop can share a control connection; recvFrame must stay single-threaded
/// (one reader owns the stream position).
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd, testing::FaultInjector* faults = nullptr)
      : fd_(fd), faults_(faults) {}
  ~Connection();

  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool valid() const { return fd_.load() >= 0; }

  /// Encodes and writes one frame. Throws IoError on a broken peer or an
  /// injected net.frame.send fault (a truncating fault sends the partial
  /// prefix and poisons the socket, so the peer observes a real mid-frame
  /// cut, then throws).
  void sendFrame(const Frame& frame);

  /// Reads one whole frame. Returns false on clean EOF at a frame boundary;
  /// throws IoError on reset / EOF mid-frame / timeout, FormatError (via
  /// decodeFrame) when the bytes fail CRC or header validation.
  bool recvFrame(Frame& out);

  /// Bounds every subsequent recv; 0 restores blocking reads. A lapsed
  /// timeout surfaces as IoError from recvFrame, which the heartbeat monitor
  /// and retryWithPolicy treat like any other transport failure.
  void setRecvTimeout(u64 timeout_ms);

  /// Shuts the socket down and closes it. Idempotent; recvFrame on the peer
  /// sees EOF. Owner-side only: never call while another thread may be
  /// blocked in recvFrame on this connection — use shutdownNow() for that.
  void close();

  /// Thread-safe wake-up: shuts the stream down WITHOUT closing the fd, so a
  /// thread blocked in recvFrame unwinds with an IoError while the
  /// descriptor stays valid (no recycled-fd race) until the owner closes it.
  void shutdownNow();

 private:
  std::atomic<int> fd_{-1};  // shutdownNow() races the reader; -1 once closed
  testing::FaultInjector* faults_ = nullptr;
  Mutex sendMu_{lock_rank::kNetConnectionSend};  // serialises writers; the fd itself is not guarded for recv
};

/// Listening UNIX socket: binds at construction (unlinking any stale file),
/// hands out Connections from accept(). stop() unblocks a pending accept.
class Listener {
 public:
  explicit Listener(std::filesystem::path socketPath,
                    testing::FaultInjector* faults = nullptr);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Blocks for the next peer. Returns an invalid Connection after stop().
  Connection accept();

  /// Unblocks accept() (shutdown, not close — a thread may still be inside
  /// ::accept on this fd) and unlinks the socket path. Idempotent. The fd
  /// itself closes at destruction, which owners sequence after joining
  /// their accept thread.
  void stop();

  const std::filesystem::path& socketPath() const { return socketPath_; }

 private:
  const std::filesystem::path socketPath_;
  testing::FaultInjector* faults_ = nullptr;
  std::atomic<int> listenFd_{-1};  // accept() races stop(); -1 once closed
  mutable Mutex mu_{lock_rank::kNetListener};
  bool stopped_ GUARDED_BY(mu_) = false;
};

/// Dials a UNIX socket. Throws IoError when the peer refuses (including an
/// injected net.connect kThrowIo) and applies kDelay stalls before connecting.
Connection connectUnix(const std::filesystem::path& socketPath,
                       testing::FaultInjector* faults = nullptr);

}  // namespace scishuffle::net
