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
#include <cstring>
#include <memory>
#include <string_view>
#include <thread>

#include "util/fields.h"
#include "util/rng.h"

namespace netsample::shard {

namespace {

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// The line framer under every fd transport. Unconsumed bytes are
/// [head_, end_) and no newline lies in [head_, scan_), so each byte is
/// searched once. A read first moves the unconsumed tail to the front, one
/// move per read rather than one erase per line, so a burst of many lines
/// costs linear time; and a partial line over the cap is refused before
/// the next read, so the buffer never outgrows the cap plus one window.
class LineFramer {
 public:
  explicit LineFramer(std::size_t max_line) : max_line_(max_line) {}

  /// One read() of at most kReadWindow bytes; returns what read() did.
  ssize_t fill(int fd) {
    if (head_ == end_ && cap_ > 4 * kReadWindow) clear();  // a long line left
    if (head_ > 0) {
      std::memmove(data_.get(), data_.get() + head_, end_ - head_);
      end_ -= head_;
      scan_ -= head_;
      head_ = 0;
    }
    reserve(end_ + kReadWindow);
    const ssize_t got = ::read(fd, data_.get() + end_, kReadWindow);
    if (got > 0) end_ += static_cast<std::size_t>(got);
    return got;
  }

  /// The next complete line, trailing '\r' stripped, as a view valid
  /// until the next fill(). False when none is buffered, or when the line
  /// runs past the cap (too_long() then turns true).
  bool next(std::string_view* line) {
    if (too_long_) return false;
    const char* base = data_.get();
    const void* nl = end_ > scan_
                         ? std::memchr(base + scan_, '\n', end_ - scan_)
                         : nullptr;
    if (nl == nullptr) {
      scan_ = end_;
      too_long_ = end_ - head_ > max_line_;
      return false;
    }
    const auto at =
        static_cast<std::size_t>(static_cast<const char*>(nl) - base);
    std::size_t len = at - head_;
    if (len > max_line_) {
      too_long_ = true;
      return false;
    }
    while (len > 0 && base[head_ + len - 1] == '\r') --len;
    *line = std::string_view(base + head_, len);
    head_ = scan_ = at + 1;
    return true;
  }

  /// Drop every buffered byte (EOF, error, close: never deliver a torn
  /// line) and the storage with them.
  void clear() {
    data_.reset();
    cap_ = head_ = scan_ = end_ = 0;
  }

  [[nodiscard]] bool too_long() const { return too_long_; }

 private:
  void reserve(std::size_t need) {
    if (need <= cap_) return;
    const std::size_t cap =
        std::max(need, std::min(2 * cap_, max_line_ + kReadWindow));
    auto grown = std::make_unique_for_overwrite<char[]>(cap);
    if (end_ > 0) std::memcpy(grown.get(), data_.get(), end_);
    data_ = std::move(grown);
    cap_ = cap;
  }

  std::unique_ptr<char[]> data_;
  std::size_t cap_{0};
  std::size_t head_{0};
  std::size_t scan_{0};
  std::size_t end_{0};
  std::size_t max_line_;
  bool too_long_{false};
};

/// The transport behind every wire: one socket (rfd == wfd: a socketpair
/// end, a TCP connection) or a worker's stdin/stdout (rfd != wfd). Line
/// framing and the discard-partial-on-close rule live here, shared by
/// every wire.
class FdTransport final : public Transport {
 public:
  FdTransport(int read_fd, int write_fd, std::size_t max_line)
      : rfd_(read_fd), wfd_(write_fd), framer_(max_line) {}
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
    std::string_view view;
    while (true) {
      if (framer_.next(&view)) {
        line->assign(view);
        return ReadResult::kLine;
      }
      if (rfd_ < 0 || eof_) return ended();
      if (framer_.too_long()) return end_of_input();
      const ssize_t got = framer_.fill(rfd_);
      if (got < 0 && errno == EINTR) return ReadResult::kInterrupted;
      if (got <= 0) return end_of_input();
    }
  }

  [[nodiscard]] ReadResult drain(std::vector<std::string>* lines) override {
    if (rfd_ < 0 || eof_) return ended();
    // Never block here, whatever the fd's flags: a zero-timeout poll
    // stands in for O_NONBLOCK so the same fd still block-reads in
    // read_line (spurious wakeups otherwise wedge the coordinator).
    pollfd ready{rfd_, POLLIN, 0};
    if (::poll(&ready, 1, 0) <= 0 || (ready.revents & (POLLIN | POLLHUP)) == 0) {
      return ReadResult::kNoData;
    }
    const ssize_t got = framer_.fill(rfd_);
    if (got < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      return ReadResult::kNoData;
    }
    if (got <= 0) return end_of_input();
    bool any = false;
    std::string_view line;
    while (framer_.next(&line)) {
      lines->emplace_back(line);
      any = true;
    }
    // The lines before an over-long one are delivered with the kTooLong.
    if (framer_.too_long()) return end_of_input();
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
    framer_.clear();
  }

  [[nodiscard]] bool is_closed() const override { return eof_; }

  void append_fds(std::vector<int>* out) const override {
    if (rfd_ >= 0) out->push_back(rfd_);
    if (wfd_ >= 0 && wfd_ != rfd_) out->push_back(wfd_);
  }

 private:
  /// EOF, a read error or an over-long line: reads are over, and the
  /// partial line is never delivered.
  ReadResult end_of_input() {
    eof_ = true;
    framer_.clear();
    return ended();
  }

  /// What every read says once reads are over.
  [[nodiscard]] ReadResult ended() const {
    return framer_.too_long() ? ReadResult::kTooLong : ReadResult::kClosed;
  }

  int rfd_{-1};
  int wfd_{-1};
  bool eof_{false};
  bool write_dead_{false};
  LineFramer framer_;
};

}  // namespace

std::unique_ptr<Transport> make_fd_transport(int read_fd, int write_fd,
                                             std::size_t max_line) {
  return std::make_unique<FdTransport>(read_fd, write_fd, max_line);
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

std::unique_ptr<Transport> Listener::accept_connection(std::size_t max_line) {
  if (fd_ < 0) return nullptr;
  while (true) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      // Accepted sockets inherit O_NONBLOCK on some systems; the protocol
      // wants blocking writes + poll-gated reads, so clear it.
      const int flags = ::fcntl(conn, F_GETFL, 0);
      (void)::fcntl(conn, F_SETFL, flags & ~O_NONBLOCK);
      set_nodelay(conn);
      return make_fd_transport(conn, conn, max_line);
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
        return make_fd_transport(fd, fd, kDefaultMaxLine);
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
