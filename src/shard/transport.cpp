#include "shard/transport.h"

#include <fcntl.h>
#include <poll.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/fields.h"
#include "util/rng.h"

namespace netsample::shard {

namespace {

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// The fd-pair transport behind both pipe mode (rfd != wfd) and socket
/// mode (rfd == wfd). Line framing and the discard-partial-on-close rule
/// live here, shared by every wire.
class FdTransport final : public Transport {
 public:
  FdTransport(int read_fd, int write_fd) : rfd_(read_fd), wfd_(write_fd) {}
  ~FdTransport() override { close(); }

  [[nodiscard]] int poll_fd() const override { return rfd_; }

  [[nodiscard]] bool write_line(const std::string& line) override {
    return write_bytes(line + "\n");
  }

  [[nodiscard]] bool write_bytes(const std::string& bytes) override {
    if (wfd_ < 0 || write_dead_) return false;
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::write(wfd_, bytes.data() + off, bytes.size() - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        write_dead_ = true;
        return false;
      }
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  [[nodiscard]] ReadResult read_line(std::string* line) override {
    while (true) {
      if (take_line(line)) return ReadResult::kLine;
      if (rfd_ < 0 || eof_) return ReadResult::kClosed;
      char chunk[65536];
      const ssize_t got = ::read(rfd_, chunk, sizeof chunk);
      if (got < 0) {
        if (errno == EINTR) return ReadResult::kInterrupted;
        eof_ = true;
        buf_.clear();  // never deliver a torn line
        return ReadResult::kClosed;
      }
      if (got == 0) {
        eof_ = true;
        buf_.clear();
        return ReadResult::kClosed;
      }
      buf_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  [[nodiscard]] ReadResult drain(std::vector<std::string>* lines) override {
    if (rfd_ < 0 || eof_) return ReadResult::kClosed;
    // Never block here, whatever the fd's flags: a zero-timeout poll
    // stands in for O_NONBLOCK so the same fd still block-reads in
    // read_line (spurious wakeups otherwise wedge the coordinator).
    pollfd ready{rfd_, POLLIN, 0};
    if (::poll(&ready, 1, 0) <= 0 || (ready.revents & (POLLIN | POLLHUP)) == 0) {
      return ReadResult::kNoData;
    }
    char chunk[65536];
    const ssize_t got = ::read(rfd_, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        return ReadResult::kNoData;
      }
      eof_ = true;
      buf_.clear();
      return ReadResult::kClosed;
    }
    if (got == 0) {
      eof_ = true;
      buf_.clear();
      return ReadResult::kClosed;
    }
    buf_.append(chunk, static_cast<std::size_t>(got));
    bool any = false;
    std::string line;
    while (take_line(&line)) {
      lines->push_back(std::move(line));
      any = true;
    }
    return any ? ReadResult::kLine : ReadResult::kNoData;
  }

  void shutdown_write() override {
    if (wfd_ < 0) return;
    if (wfd_ == rfd_) {
      (void)::shutdown(wfd_, SHUT_WR);
    } else {
      ::close(wfd_);
      wfd_ = -1;
    }
    write_dead_ = true;
  }

  void close() override {
    if (rfd_ >= 0 && rfd_ == wfd_) {
      ::close(rfd_);
      rfd_ = wfd_ = -1;
    } else {
      if (rfd_ >= 0) ::close(rfd_);
      if (wfd_ >= 0) ::close(wfd_);
      rfd_ = wfd_ = -1;
    }
    eof_ = true;
    write_dead_ = true;
    buf_.clear();
  }

  [[nodiscard]] bool is_closed() const override { return eof_; }

  void append_fds(std::vector<int>* out) const override {
    if (rfd_ >= 0) out->push_back(rfd_);
    if (wfd_ >= 0 && wfd_ != rfd_) out->push_back(wfd_);
  }

 private:
  bool take_line(std::string* line) {
    const std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos) return false;
    line->assign(buf_, 0, nl);
    while (!line->empty() && line->back() == '\r') line->pop_back();
    buf_.erase(0, nl + 1);
    return true;
  }

  int rfd_{-1};
  int wfd_{-1};
  bool eof_{false};
  bool write_dead_{false};
  std::string buf_;
};

/// Stdio transport: the exec'd-worker stdin/stdout path and the tmpfile
/// unit tests. Blocking-read only; does not own the streams.
class StdioTransport final : public Transport {
 public:
  StdioTransport(std::FILE* in, std::FILE* out) : in_(in), out_(out) {}

  [[nodiscard]] int poll_fd() const override { return ::fileno(in_); }

  [[nodiscard]] bool write_line(const std::string& line) override {
    return write_bytes(line + "\n");
  }

  [[nodiscard]] bool write_bytes(const std::string& bytes) override {
    if (closed_) return false;
    if (std::fwrite(bytes.data(), 1, bytes.size(), out_) != bytes.size() ||
        std::fflush(out_) != 0) {
      closed_ = true;
      return false;
    }
    return true;
  }

  [[nodiscard]] ReadResult read_line(std::string* line) override {
    if (closed_) return ReadResult::kClosed;
    char* buf = nullptr;
    std::size_t cap = 0;
    errno = 0;
    const ssize_t n = ::getline(&buf, &cap, in_);
    if (n < 0) {
      std::free(buf);
      if (errno == EINTR) {
        std::clearerr(in_);
        return ReadResult::kInterrupted;
      }
      closed_ = true;
      return ReadResult::kClosed;
    }
    line->assign(buf, static_cast<std::size_t>(n));
    std::free(buf);
    while (!line->empty() &&
           (line->back() == '\n' || line->back() == '\r')) {
      line->pop_back();
    }
    return ReadResult::kLine;
  }

  [[nodiscard]] ReadResult drain(std::vector<std::string>*) override {
    return ReadResult::kNoData;  // worker side never drains
  }

  void shutdown_write() override {
    (void)std::fflush(out_);
    closed_ = true;
  }

  void close() override { closed_ = true; }
  [[nodiscard]] bool is_closed() const override { return closed_; }
  void append_fds(std::vector<int>*) const override {}

 private:
  std::FILE* in_;
  std::FILE* out_;
  bool closed_{false};
};

}  // namespace

std::unique_ptr<Transport> make_fd_transport(int read_fd, int write_fd) {
  return std::make_unique<FdTransport>(read_fd, write_fd);
}

std::unique_ptr<Transport> make_stdio_transport(std::FILE* in,
                                                std::FILE* out) {
  return std::make_unique<StdioTransport>(in, out);
}

StatusOr<std::pair<std::string, int>> parse_host_port(
    const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "expected HOST:PORT, got \"" + text + "\"");
  }
  const std::string host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  std::uint64_t port = 0;
  if (!fields::parse_uint(port_text, &port, 65535)) {
    return Status(StatusCode::kInvalidArgument,
                  "expected a port in [0, 65535], got \"" + port_text + "\"");
  }
  return std::make_pair(host, static_cast<int>(port));
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_), host_(std::move(other.host_)) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    host_ = std::move(other.host_);
    other.fd_ = -1;
  }
  return *this;
}

Listener::~Listener() { close(); }

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string Listener::address() const {
  return host_ + ":" + std::to_string(port_);
}

StatusOr<Listener> Listener::open(const std::string& host_port) {
  auto parsed = parse_host_port(host_port);
  if (!parsed.has_value()) return parsed.status();
  const std::string& host = parsed->first;
  const int port = parsed->second;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                &hints, &res);
  if (gai != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "listener: cannot resolve " + host_port + ": " +
                      ::gai_strerror(gai));
  }

  int fd = -1;
  std::string err = "no usable address";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      err = std::strerror(errno);
      continue;
    }
    int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 64) == 0) {
      break;
    }
    err = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    return Status(StatusCode::kInternal,
                  "listener: cannot bind " + host_port + ": " + err);
  }

  // Nonblocking accept: poll() readiness is a hint, not a promise (a
  // connection can abort between poll and accept).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  int actual_port = port;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    actual_port = static_cast<int>(ntohs(bound.sin_port));
  }

  Listener out;
  out.fd_ = fd;
  out.port_ = actual_port;
  out.host_ = host;
  return out;
}

std::unique_ptr<Transport> Listener::accept_connection() {
  if (fd_ < 0) return nullptr;
  while (true) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      // Accepted sockets inherit O_NONBLOCK on some systems; the protocol
      // wants blocking writes + poll-gated reads, so clear it.
      const int flags = ::fcntl(conn, F_GETFL, 0);
      (void)::fcntl(conn, F_SETFL, flags & ~O_NONBLOCK);
      set_nodelay(conn);
      return make_fd_transport(conn, conn);
    }
    if (errno == EINTR) continue;
    return nullptr;  // EAGAIN / aborted handshake: nothing to accept
  }
}

StatusOr<std::unique_ptr<Transport>> dial(const std::string& host_port,
                                          const DialOptions& opts) {
  auto parsed = parse_host_port(host_port);
  if (!parsed.has_value()) return parsed.status();
  const std::string& host = parsed->first;
  const int port = parsed->second;
  if (port == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "dial: port 0 is listen-only");
  }

  const std::uint64_t seed =
      opts.jitter_seed != 0
          ? opts.jitter_seed
          : derive_seed({0x6e65746469616cULL,
                         static_cast<std::uint64_t>(::getpid())});
  Rng jitter(seed);

  std::string err = "unreachable";
  double backoff = opts.initial_backoff_s;
  for (int attempt = 0; attempt <= opts.retries; ++attempt) {
    if (attempt > 0) {
      const double delay = backoff * jitter.uniform(0.5, 1.5);
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      backoff = std::min(backoff * 2.0, opts.max_backoff_s);
    }

    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int gai = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                  &hints, &res);
    if (gai != 0) {
      err = ::gai_strerror(gai);
      continue;
    }
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family, ai->ai_socktype,
                              ai->ai_protocol);
      if (fd < 0) {
        err = std::strerror(errno);
        continue;
      }
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        set_nodelay(fd);
        ::freeaddrinfo(res);
        return std::unique_ptr<Transport>(make_fd_transport(fd, fd));
      }
      err = std::strerror(errno);
      ::close(fd);
    }
    ::freeaddrinfo(res);
  }
  return Status(StatusCode::kInternal,
                "dial: cannot reach " + host_port + " after " +
                    std::to_string(opts.retries + 1) + " attempt(s): " + err);
}

}  // namespace netsample::shard
