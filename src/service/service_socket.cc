#include "service/service_socket.h"

#include <sstream>
#include <utility>

#include "net/protocol.h"

namespace scishuffle::service {

namespace {

/// How long a connection may take to deliver its request frame; a client
/// that stalls past it is dropped unanswered, so it cannot pin a thread.
constexpr u64 kRequestTimeoutMs = 5000;

std::vector<std::string> splitWords(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  std::string word;
  while (in >> word) words.push_back(word);
  return words;
}

std::string statusLine(const JobStatus& s) {
  std::ostringstream os;
  os << s.id << ' ' << jobStateName(s.state) << ' ' << priorityName(s.priority) << ' '
     << (s.name.empty() ? "-" : s.name) << " wait_us=" << s.queueWaitUs();
  if (!s.error.empty()) os << " error=" << s.error;
  return os.str();
}

}  // namespace

ServiceEndpoint::ServiceEndpoint(JobService& service, std::filesystem::path socketPath,
                                 SpecBuilder builder)
    : service_(service), builder_(std::move(builder)), listener_(std::move(socketPath)) {
  check(static_cast<bool>(builder_), "endpoint needs a spec builder");
  acceptor_ = std::thread([this] { acceptLoop(); });
}

ServiceEndpoint::~ServiceEndpoint() { stop(); }

void ServiceEndpoint::waitUntilShutdownRequested() {
  MutexLock lock(mu_);
  while (!shutdownRequested_ && !stopped_) shutdownCv_.wait(lock);
}

void ServiceEndpoint::requestShutdown() {
  {
    MutexLock lock(mu_);
    shutdownRequested_ = true;
  }
  shutdownCv_.notify_all();
}

void ServiceEndpoint::stop() {
  {
    MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  shutdownCv_.notify_all();
  // Wakes the acceptor out of accept() and unlinks the socket path; mu_ is
  // held across neither call.
  listener_.stop();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> conns;
  {
    MutexLock lock(mu_);
    conns = std::move(conns_);
  }
  for (std::thread& t : conns) t.join();
}

void ServiceEndpoint::acceptLoop() {
  for (;;) {
    net::Connection conn = listener_.accept();
    if (!conn.valid()) return;  // listener stopped
    MutexLock lock(mu_);
    if (stopped_) return;  // accepted while stop() ran: dropped unanswered
    conns_.emplace_back(
        [this, c = std::move(conn)]() mutable { serveConnection(std::move(c)); });
  }
}

void ServiceEndpoint::serveConnection(net::Connection conn) {
  try {
    conn.setRecvTimeout(kRequestTimeoutMs);
    net::Frame frame;
    if (!conn.recvFrame(frame)) return;  // closed before sending a request
    const std::string line = net::ServiceRequestMsg::decode(frame).line;
    conn.sendFrame(net::ServiceReplyMsg{handleRequest(line)}.encode());
  } catch (...) {
    // A malformed, stalled or departed client: the protocol answers it with
    // a closed connection, and the server carries on.
  }
}

std::string ServiceEndpoint::handleRequest(const std::string& line) {
  try {
    std::vector<std::string> words = splitWords(line);
    if (words.empty()) return "error empty request";
    const std::string cmd = words.front();
    words.erase(words.begin());
    if (cmd == "submit") {
      if (words.empty()) return "error usage: submit <priority> <spec...>";
      JobSpec spec;
      spec.priority = parsePriority(words.front());
      words.erase(words.begin());
      std::string why;
      if (!builder_(words, spec, why)) return "error " + why;
      const SubmitResult r = service_.submit(std::move(spec));
      if (!r.accepted) {
        const auto s = service_.status(r.id);
        return "rejected id=" + std::to_string(r.id) + (s ? " " + s->error : "");
      }
      return "ok id=" + std::to_string(r.id);
    }
    if (cmd == "status" || cmd == "wait") {
      if (words.size() != 1) return "error usage: " + cmd + " <id>";
      const u64 id = std::stoull(words.front());
      if (cmd == "wait") return statusLine(service_.wait(id));
      const auto s = service_.status(id);
      return s ? statusLine(*s) : "error unknown job id";
    }
    if (cmd == "list") {
      std::ostringstream os;
      for (const JobStatus& s : service_.list()) os << statusLine(s) << "\n";
      os << "end";
      return os.str();
    }
    if (cmd == "cancel") {
      if (words.size() != 1) return "error usage: cancel <id>";
      return service_.cancel(std::stoull(words.front())) ? "ok"
                                                         : "error unknown or terminal job";
    }
    if (cmd == "shutdown") {
      requestShutdown();
      return "ok";
    }
    return "error unknown command: " + cmd;
  } catch (const std::exception& e) {
    return std::string("error ") + e.what();
  }
}

std::string ServiceEndpoint::request(const std::filesystem::path& socketPath,
                                     const std::string& line) {
  net::Connection conn = net::connectUnix(socketPath);
  conn.sendFrame(net::ServiceRequestMsg{line}.encode());
  net::Frame reply;
  if (!conn.recvFrame(reply)) {
    throw IoError("service endpoint " + socketPath.string() + " closed without a reply");
  }
  return net::ServiceReplyMsg::decode(reply).text;
}

}  // namespace scishuffle::service
