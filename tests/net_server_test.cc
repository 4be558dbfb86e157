// Tests for net::Server (ctest label: tsan): the connection guarantees the
// coordinator's control plane and each worker's data plane rely on, shown on
// a plain echo server. A handler whose peer left gets an IoError, not
// SIGPIPE; a malformed, truncated or missing frame ends only its own
// connection; a finished handler's thread is joined once the next connection
// arrives; stop() drops a client that never sent anything, yet a handler
// already serving a request still delivers its reply, also when the owner
// stops the server the moment that request arrives.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/frame.h"
#include "net/socket.h"
#include "testing_support.h"

namespace scishuffle::net {
namespace {

using scishuffle::testing::TempDir;

/// A latch the echo handler parks on between reading a request and replying.
class Gate {
 public:
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Opens the gate on scope exit: declared after the server, it keeps an early
/// test exit from leaving a handler parked while ~Server joins it.
struct OpenOnExit {
  Gate& gate;
  ~OpenOnExit() { gate.release(); }
};

/// Echoes every frame back until the peer closes. With a gate, each request
/// parks on it after it was read (and counted) and before its reply.
struct Echo {
  Gate* gate = nullptr;
  std::atomic<int> received{0};
  std::atomic<int> send_failures{0};  // replies that raised IoError

  Server::Handler handler() {
    return [this](const std::shared_ptr<Connection>& conn) {
      try {
        Frame frame;
        while (conn->recvFrame(frame)) {
          ++received;
          if (gate != nullptr) gate->wait();
          try {
            conn->sendFrame(frame);
          } catch (const IoError&) {
            ++send_failures;
            return;
          }
        }
      } catch (const std::exception&) {
        // A bad or cut-off frame ends this connection, and only this one.
      }
    };
  }
};

Frame ping(u8 n) { return Frame{FrameType::kHeartbeat, Bytes{'p', 'i', 'n', 'g', n}}; }

/// One request on a fresh connection; true when its echo came back intact.
bool roundTrip(const std::filesystem::path& path, const Frame& request) {
  Connection conn = connectUnix(path);
  conn.sendFrame(request);
  Frame reply;
  return conn.recvFrame(reply) && reply.type == request.type && reply.payload == request.payload;
}

/// Writes `wire` raw on a fresh connection and half-closes it; true when the
/// server answers with a frame, false when it closes the connection instead.
bool answersRawBytes(const std::filesystem::path& path, const Bytes& wire) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  Connection conn(fd);  // owns the descriptor from here on
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(wire.size()) ||
      ::shutdown(fd, SHUT_WR) != 0) {
    throw IoError("cannot deliver raw bytes to " + path.string());
  }
  Frame reply;
  return conn.recvFrame(reply);
}

/// Polls `done` until it holds or `limit` passes.
template <typename Pred>
bool eventually(Pred done, std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Lines in /proc/self/maps (one per mapping), or -1 without procfs.
long mappingCount() {
  std::ifstream maps("/proc/self/maps");
  if (!maps) return -1;
  long lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// The reply goes to a peer that has closed. That must cost the one
// connection: a write without MSG_NOSIGNAL raises SIGPIPE instead and kills
// the whole process.
TEST(NetServerTest, ReplyToADepartedPeerIsAnIoErrorNotSigpipe) {
  TempDir dir("net_server_gone");
  Gate gate;
  Echo echo;
  echo.gate = &gate;
  Server server(dir.file("s.sock"), echo.handler());
  OpenOnExit opener{gate};
  {
    Connection gone = connectUnix(server.socketPath());
    gone.sendFrame(ping(1));
    ASSERT_TRUE(eventually([&] { return echo.received.load() == 1; }));
  }  // closed while its handler is parked before the reply
  gate.release();
  ASSERT_TRUE(eventually([&] { return echo.send_failures.load() == 1; }))
      << "the reply to a departed peer did not fail";
  EXPECT_TRUE(roundTrip(server.socketPath(), ping(2))) << "the next client went unanswered";
}

TEST(NetServerTest, MalformedOrMissingFrameEndsOnlyItsConnection) {
  TempDir dir("net_server_malformed");
  Echo echo;
  Server server(dir.file("s.sock"), echo.handler());
  const std::filesystem::path& path = server.socketPath();

  const Bytes valid = encodeFrame(ping(3));
  Bytes flipped = valid;
  flipped[kFrameHeaderBytes + 1] ^= 0x01;  // one payload bit: only the CRC can tell
  const Bytes truncated(valid.begin(), valid.end() - 1);
  EXPECT_TRUE(answersRawBytes(path, valid));
  EXPECT_FALSE(answersRawBytes(path, flipped)) << "flipped payload bit";
  EXPECT_TRUE(roundTrip(path, ping(4))) << "next client after a flipped bit";
  EXPECT_FALSE(answersRawBytes(path, truncated)) << "frame that never completes";
  EXPECT_TRUE(roundTrip(path, ping(5))) << "next client after a truncated frame";
  EXPECT_FALSE(answersRawBytes(path, Bytes{})) << "no frame at all";
  EXPECT_TRUE(roundTrip(path, ping(6))) << "next client after an empty connection";
}

// Every connection runs on a thread of its own. A finished one must be
// joined before the next starts, or each connection leaves its stack (one
// mapping plus a guard page) behind until stop().
TEST(NetServerTest, KeepsNoThreadPerFinishedConnection) {
  if (mappingCount() < 0) GTEST_SKIP() << "no /proc/self/maps";
  TempDir dir("net_server_threads");
  Echo echo;
  Server server(dir.file("s.sock"), echo.handler());
  // Warm up first: a sanitizer runtime maps its per-thread bookkeeping over
  // its first hundred or so threads, then stays flat.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(roundTrip(server.socketPath(), ping(7)));
  const long before = mappingCount();
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(roundTrip(server.socketPath(), ping(8)));
  EXPECT_LT(mappingCount() - before, 64) << "mappings grew with finished connections";
}

// A client that connects and never sends must not hold stop().
TEST(NetServerTest, StopDropsASilentClient) {
  TempDir dir("net_server_silent");
  Echo echo;
  Server server(dir.file("s.sock"), echo.handler());
  Connection silent = connectUnix(server.socketPath());
  // Connections are accepted in order, so once this one is answered the
  // silent one has a handler blocked reading its request.
  ASSERT_TRUE(roundTrip(server.socketPath(), ping(9)));

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server.stop();
    stopped = true;
  });
  const bool inTime = eventually([&] { return stopped.load(); }, std::chrono::seconds(1));
  if (!inTime) silent.close();  // lets a stop() stuck on the silent client finish
  stopper.join();
  ASSERT_TRUE(inTime) << "stop() waited on a client that never sent";
  Frame frame;
  EXPECT_FALSE(silent.recvFrame(frame)) << "the dropped client sees EOF";
}

// stop() drops clients that have not asked anything, but a handler already
// serving a request when stop() begins still gets its reply out: stop()
// shuts only the read side of live connections.
TEST(NetServerTest, StopLetsAHandlerAlreadyServingReply) {
  TempDir dir("net_server_stop_reply");
  Gate gate;
  Echo echo;
  echo.gate = &gate;
  Server server(dir.file("s.sock"), echo.handler());
  OpenOnExit opener{gate};
  const std::filesystem::path path = server.socketPath();
  Connection client = connectUnix(path);
  client.sendFrame(ping(10));
  ASSERT_TRUE(eventually([&] { return echo.received.load() == 1; }));

  std::thread stopper([&server] { server.stop(); });
  // stop() unlinks the path first, then shuts the live connections down and
  // joins them. Releasing the handler before stop() gets that far only
  // weakens the test; it cannot make a correct server fail.
  const bool unlinked = eventually([&] { return !std::filesystem::exists(path); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  gate.release();

  Frame reply;
  const bool answered = client.recvFrame(reply);
  stopper.join();
  EXPECT_TRUE(unlinked) << "stop() never unlinked the socket path";
  ASSERT_TRUE(answered) << "the request being served lost its reply";
  EXPECT_EQ(reply.payload, ping(10).payload);
  EXPECT_EQ(echo.send_failures.load(), 0);
}

// The owner may call stop() the instant a handler has read its request, before
// the reply goes out: a host that stops on a request to stop does exactly
// that. Unstaged, round after round, the reply must still arrive. The reply
// is 1 MiB, far more than a socket buffer holds, so it is still being written
// while stop() shuts the connections down.
TEST(NetServerTest, ReplySurvivesAStopIssuedAsItsRequestArrives) {
  TempDir dir("net_server_stop_race");
  for (int round = 0; round < 20; ++round) {
    std::promise<void> arrived;
    Server server(dir.file("s.sock"), [&arrived](const std::shared_ptr<Connection>& conn) {
      try {
        Frame frame;
        if (!conn->recvFrame(frame)) return;
        arrived.set_value();
        conn->sendFrame(frame);
      } catch (const std::exception&) {
        // A lost reply shows on the client's side.
      }
    });
    std::thread host([&server, done = arrived.get_future()] {
      done.wait_for(std::chrono::seconds(10));
      server.stop();
    });
    const Frame request{FrameType::kHeartbeat, Bytes(std::size_t{1} << 20, static_cast<u8>(round))};
    bool answered = false;
    Frame reply;
    try {
      Connection client = connectUnix(server.socketPath());
      client.sendFrame(request);
      answered = client.recvFrame(reply);
    } catch (const IoError&) {
      // A reset connection counts as a lost reply.
    }
    host.join();
    ASSERT_TRUE(answered) << "round " << round << " lost its reply to stop()";
    EXPECT_EQ(reply.payload, request.payload) << "round " << round;
  }
}

}  // namespace
}  // namespace scishuffle::net
