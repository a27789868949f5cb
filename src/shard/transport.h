// Byte transports for the coordinator <-> worker line protocol.
//
// This header makes "how lines travel" a seam. A Transport is one
// bidirectional, ordered, newline-framed byte channel. One real
// implementation exists, a fd transport (make_fd_transport), under every
// wire:
//
//   local   a socketpair per locally spawned worker: the fork-only child
//           reads its end, an exec'd `netsample worker` has it as
//           stdin/stdout (`--transport pipe`, the default);
//   socket  one TCP connection, so workers can live on other machines
//           (`netsample sweep --transport socket --listen HOST:PORT`,
//           `netsample worker --connect HOST:PORT`).
//
// plus the deterministic wire-impairment wrapper in faultsim/netfault.h,
// which is why the interface lives header-visible: faultsim wraps a
// Transport without linking against shard internals.
//
// The interface is deliberately tiny and line-oriented:
//   - write_line()  appends '\n' and writes the whole line or reports the
//                   channel dead — there are no partial writes at this
//                   layer (a torn write is modeled as write-then-close,
//                   which is what a crashed peer actually produces);
//   - read_line()   blocks for the next complete line (worker side);
//   - drain()       nonblocking: one read() worth of bytes split into the
//                   complete lines it finished (coordinator side, after
//                   poll() said the fd is readable);
//   - poll_fd()     the fd a coordinator poll loop watches.
//
// A partial line buffered when the peer closes is DISCARDED, never
// delivered: strict framing is what keeps a half-written RESULT from a
// dying worker unparseable by construction (docs/SHARDING.md). A line
// longer than the transport's cap is discarded the same way and ends the
// reads with kTooLong; whoever builds a fd transport states its cap
// (docs/FORMATS.md §5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace netsample::shard {

/// Bytes one read() of a fd transport asks for; its framer reads at most
/// this much at a time and compacts once per read.
inline constexpr std::size_t kReadWindow = std::size_t{64} << 10;

/// The line cap of a fd transport built without one: above the longest
/// line any writer in this repository produces, a RESULT at the largest
/// replication count the codecs accept (max_lease_line(10^6) is about
/// 306 MiB) included.
inline constexpr std::size_t kDefaultMaxLine = std::size_t{512} << 20;

enum class ReadResult {
  kLine,         // *line holds one complete line (newline stripped)
  kNoData,       // nonblocking drain: nothing complete yet, channel fine
  kClosed,       // peer closed (or channel previously errored)
  kInterrupted,  // blocking read hit EINTR — caller decides (SIGTERM check)
  kTooLong,      // a line ran past the transport's cap: reads are over as
                 // on kClosed, and every later read says kTooLong again
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Fd a poll() loop can watch for readability (coordinator side).
  [[nodiscard]] virtual int poll_fd() const = 0;

  /// Write `line` + '\n' fully. False marks the channel closed (EPIPE,
  /// reset); a false return is sticky — the channel never half-works.
  [[nodiscard]] virtual bool write_line(const std::string& line) = 0;

  /// Raw bytes, NO framing added. Exists so a fault injector can produce a
  /// genuinely torn line — a prefix with no newline, then a close — which
  /// is what a crashed peer's last write looks like on a real wire.
  [[nodiscard]] virtual bool write_bytes(const std::string& bytes) = 0;

  /// Block until one complete line, EOF, or a signal (worker side).
  [[nodiscard]] virtual ReadResult read_line(std::string* line) = 0;

  /// Nonblocking: consume at most one read() of bytes, append every line
  /// it completed to `lines`. kLine when >= 1 line landed, kNoData when
  /// the read would block or was short of a newline, kClosed on EOF
  /// (any buffered partial line is discarded), kTooLong on a line over
  /// the cap (the lines before it are still appended).
  [[nodiscard]] virtual ReadResult drain(std::vector<std::string>* lines) = 0;

  /// Half-close the write side so the peer sees EOF after our last line
  /// (STOP backpressure), while reads keep working.
  virtual void shutdown_write() = 0;

  virtual void close() = 0;
  [[nodiscard]] virtual bool is_closed() const = 0;

  /// Append every raw fd this transport owns (fork hygiene: children close
  /// the coordinator's descriptors so sibling EOFs propagate).
  virtual void append_fds(std::vector<int>* out) const = 0;
};

/// A transport over a read fd + write fd pair (rfd == wfd for a socket;
/// distinct fds for a worker's stdin/stdout). Takes ownership of both. It
/// delivers no line longer than `max_line` bytes, newline excluded: the
/// first longer one ends its reads with kTooLong.
[[nodiscard]] std::unique_ptr<Transport> make_fd_transport(
    int read_fd, int write_fd, std::size_t max_line);

/// Split "host:port" (last ':' wins, so a future v6 literal can carry
/// colons). Port must be numeric in [0, 65535]; 0 is only meaningful for
/// listening (ephemeral).
[[nodiscard]] StatusOr<std::pair<std::string, int>> parse_host_port(
    const std::string& text);

/// A listening TCP socket the coordinator accepts worker connections on.
class Listener {
 public:
  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Bind + listen on "host:port" (port 0 picks an ephemeral port).
  [[nodiscard]] static StatusOr<Listener> open(const std::string& host_port);

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] int port() const { return port_; }
  /// "host:actual-port" — what workers dial (resolves port 0).
  [[nodiscard]] std::string address() const;

  /// Accept one pending connection (TCP_NODELAY set) as a fd transport
  /// capped at `max_line`; null when none is waiting (the listener fd is
  /// nonblocking).
  [[nodiscard]] std::unique_ptr<Transport> accept_connection(
      std::size_t max_line = kDefaultMaxLine);

  void close();

 private:
  int fd_{-1};
  int port_{0};
  std::string host_;
};

struct DialOptions {
  /// Redial attempts after the first (capped exponential backoff between
  /// attempts: initial_backoff_s doubling up to max_backoff_s, each delay
  /// jittered uniformly in [0.5x, 1.5x] so a respawned fleet does not
  /// reconnect in lockstep).
  int retries{5};
  double initial_backoff_s{0.05};
  double max_backoff_s{2.0};
  /// Seed for the jitter stream (0 derives one from the pid).
  std::uint64_t jitter_seed{0};
};

/// Connect to "host:port", retrying per `opts`. kInternal when every
/// attempt failed, kInvalidArgument for an unparseable address. The wire
/// is capped at kDefaultMaxLine.
[[nodiscard]] StatusOr<std::unique_ptr<Transport>> dial(
    const std::string& host_port, const DialOptions& opts = {});

}  // namespace netsample::shard
