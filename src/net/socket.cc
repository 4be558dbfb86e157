#include "net/socket.h"

#include <system_error>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define SCISHUFFLE_NET_HAVE_UNIX_SOCKETS 1
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>
#include <cerrno>
#include <cstring>
#endif

namespace scishuffle::net {

#if defined(SCISHUFFLE_NET_HAVE_UNIX_SOCKETS)

namespace {

sockaddr_un socketAddress(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string s = path.string();
  check(s.size() < sizeof(addr.sun_path), "socket path too long for sockaddr_un");
  std::memcpy(addr.sun_path, s.c_str(), s.size() + 1);
  return addr;
}

void writeAll(int fd, const u8* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("frame send failed: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads exactly `size` bytes. Returns false on EOF before the first byte
/// when `eofOk`; throws IoError on errors, timeouts, and mid-read EOF.
bool readFully(int fd, u8* data, std::size_t size, bool eofOk) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw IoError("frame recv timed out (peer stalled)");
      throw IoError(std::string("frame recv failed: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eofOk) return false;
      throw IoError("connection reset mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Connection::~Connection() { close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(other.fd_.exchange(-1)), faults_(std::exchange(other.faults_, nullptr)) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close();
    fd_.store(other.fd_.exchange(-1));
    faults_ = std::exchange(other.faults_, nullptr);
  }
  return *this;
}

void Connection::sendFrame(const Frame& frame) {
  Bytes wire = encodeFrame(frame);
  const std::size_t full = wire.size();
  if (faults_ != nullptr) {
    faults_->hit(site::kNetFrameSend);
    faults_->mutate(site::kNetFrameSend, wire);
  }
  MutexLock lock(sendMu_);
  const int fd = fd_.load();
  check(fd >= 0, "sendFrame on a closed connection");
  writeAll(fd, wire.data(), wire.size());
  if (wire.size() < full) {
    // Injected mid-frame truncation: the prefix is on the wire; cut the
    // stream so the peer sees a hard reset, then fail locally too.
    ::shutdown(fd, SHUT_RDWR);
    throw IoError("injected fault: frame truncated mid-send");
  }
}

bool Connection::recvFrame(Frame& out) {
  const int fd = fd_.load();
  check(fd >= 0, "recvFrame on a closed connection");
  if (faults_ != nullptr) faults_->hit(site::kNetFrameRecv);
  Bytes wire(kFrameHeaderBytes);
  if (!readFully(fd, wire.data(), kFrameHeaderBytes, /*eofOk=*/true)) return false;
  // Pre-validate the header before trusting the length field with an
  // allocation; decodeFrame repeats these checks over the complete frame.
  Frame probe;
  try {
    decodeFrame(ByteSpan(wire.data(), wire.size()), probe);
  } catch (const FrameTruncatedError&) {
    // Expected: the header alone is never a whole frame. Header fields are
    // valid; safe to read the rest.
  }
  const std::size_t length = static_cast<std::size_t>(wire[5]) |
                             (static_cast<std::size_t>(wire[6]) << 8) |
                             (static_cast<std::size_t>(wire[7]) << 16) |
                             (static_cast<std::size_t>(wire[8]) << 24);
  wire.resize(kFrameOverheadBytes + length);
  readFully(fd, wire.data() + kFrameHeaderBytes, length + 4, /*eofOk=*/false);
  if (faults_ != nullptr) faults_->mutate(site::kNetFrameRecv, wire);
  const std::size_t used = decodeFrame(ByteSpan(wire.data(), wire.size()), out);
  check(used == wire.size(), "frame decode consumed unexpected byte count");
  return true;
}

void Connection::setRecvTimeout(u64 timeout_ms) {
  const int fd = fd_.load();
  check(fd >= 0, "setRecvTimeout on a closed connection");
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0)
    throw IoError(std::string("setsockopt(SO_RCVTIMEO) failed: ") + std::strerror(errno));
}

void Connection::close() {
  MutexLock lock(sendMu_);
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void Connection::shutdownNow() {
  const int fd = fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void Connection::shutdownRead() {
  const int fd = fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

Server::Server(std::filesystem::path socketPath, Handler handler)
    : socketPath_(std::move(socketPath)), handler_(std::move(handler)) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw IoError(std::string("socket() failed: ") + std::strerror(errno));
  std::filesystem::remove(socketPath_);  // stale socket from a dead process
  sockaddr_un addr = socketAddress(socketPath_);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw IoError("bind(" + socketPath_.string() + ") failed: " + why);
  }
  if (::listen(fd, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw IoError("listen failed: " + why);
  }
  listenFd_.store(fd);
  acceptor_ = std::thread([this] { acceptLoop(); });
}

Server::~Server() { stop(); }

void Server::acceptLoop() {
  for (;;) {
    const int listenFd = listenFd_.load();
    const int fd = listenFd >= 0 ? ::accept(listenFd, nullptr, nullptr) : -1;
    if (stopped_.load()) {
      if (fd >= 0) ::close(fd);  // accepted while stop() ran: dropped unanswered
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket gone
    }
    reapFinished();
    auto live = std::make_unique<Live>();
    live->conn = std::make_shared<Connection>(fd);
    try {
      live->thread = std::thread([this, l = live.get()] {
        handler_(l->conn);
        l->conn->shutdownNow();
        l->done.store(true);
      });
    } catch (const std::system_error&) {
      continue;  // out of threads: the peer sees EOF, a transport failure it retries or reports
    }
    live_.push_back(std::move(live));
  }
}

void Server::reapFinished() {
  std::erase_if(live_, [](const std::unique_ptr<Live>& l) {
    if (!l->done.load()) return false;
    l->thread.join();
    return true;
  });
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  // shutdown() wakes the acceptor blocked in ::accept; the fd stays open
  // until the acceptor is joined, so it cannot accept on a recycled one.
  const int fd = listenFd_.exchange(-1);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  std::error_code ec;
  std::filesystem::remove(socketPath_, ec);
  if (acceptor_.joinable()) acceptor_.join();
  for (const auto& l : live_) l->conn->shutdownRead();
  for (const auto& l : live_) l->thread.join();
  live_.clear();
  if (fd >= 0) ::close(fd);
}

Connection connectUnix(const std::filesystem::path& socketPath,
                       testing::FaultInjector* faults) {
  if (faults != nullptr) faults->hit(site::kNetConnect);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw IoError(std::string("socket() failed: ") + std::strerror(errno));
  sockaddr_un addr = socketAddress(socketPath);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw IoError("connect(" + socketPath.string() + ") failed: " + why);
  }
  return Connection(fd, faults);
}

#else  // !SCISHUFFLE_NET_HAVE_UNIX_SOCKETS

Connection::~Connection() = default;
Connection::Connection(Connection&&) noexcept {}
Connection& Connection::operator=(Connection&&) noexcept { return *this; }
void Connection::sendFrame(const Frame&) {
  throw IoError("UNIX domain sockets are not available on this platform");
}
bool Connection::recvFrame(Frame&) {
  throw IoError("UNIX domain sockets are not available on this platform");
}
void Connection::setRecvTimeout(u64) {}
void Connection::close() {}
void Connection::shutdownNow() {}
void Connection::shutdownRead() {}

Server::Server(std::filesystem::path socketPath, Handler handler)
    : socketPath_(std::move(socketPath)), handler_(std::move(handler)) {
  throw IoError("UNIX domain sockets are not available on this platform");
}
Server::~Server() = default;
void Server::stop() {}

Connection connectUnix(const std::filesystem::path&, testing::FaultInjector*) {
  throw IoError("UNIX domain sockets are not available on this platform");
}

#endif

}  // namespace scishuffle::net
