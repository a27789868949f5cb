// `netsample serve`: the multi-tenant streaming scoring daemon.
//
// One Server multiplexes thousands of concurrent scoring sessions over a
// fixed pool of scoring lanes. The shape (docs/SERVING.md):
//
//   transports   shard::Transport connections (TCP via Listener, or any
//                adopted fd pair — tests use socketpairs), polled by one
//                protocol thread that never blocks on a session;
//   sessions     each owns a netsample::SessionSpec-configured
//                stream::Engine plus a bounded SpscRing of packet chunks;
//   scoring      a shared util::ThreadPool drains rings into engines.
//                A session is scheduled at most once at a time (an atomic
//                claim flag), so each engine stays single-threaded and
//                rows stay in order — NOT one thread per session;
//   budgets      per-tenant admission control (max sessions) and load
//                shedding (queued ring bytes, packets/sec token bucket),
//                the collector-style drop-under-pressure model applied to
//                ourselves. Shedding is session-granular, never
//                packet-granular: a survivor's packet sequence — and
//                therefore its rows — is byte-identical to an unloaded
//                run (the serve determinism contract).
//
// Rows reuse the watch vocabulary verbatim: the payload of every
// `ROWS <id> <json>` line is exactly the jsonl line `netsample watch`
// prints for the same input, which is what the CI serve-smoke byte-diff
// pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "shard/transport.h"

namespace netsample::serve {

/// Admission/shedding budget for one tenant. Zero means unlimited.
struct TenantBudget {
  std::size_t max_sessions{0};    // concurrent sessions (admission)
  std::size_t max_ring_bytes{0};  // queued-but-unscored packet bytes
  double max_pps{0};              // sustained packets/sec (1 s burst)
};

struct ServeOptions {
  /// "host:port" to listen on (port 0 = ephemeral); empty = no listener,
  /// sessions arrive only via adopt_client() (in-process tests).
  std::string listen{};
  /// Scoring lanes (ThreadPool threads); 0 = hardware default.
  std::size_t lanes{0};
  /// Budget for tenants without an explicit entry in `tenant_budgets`.
  TenantBudget default_budget{};
  std::map<std::string, TenantBudget> tenant_budgets{};
  /// Polled each loop iteration; true requests a drain-and-stop (the CLI
  /// wires the SIGTERM flag here). May be empty.
  std::function<bool()> stop_check{};
};

/// Point-in-time counters, also emitted on the STATS wire line.
struct ServeStats {
  std::uint64_t sessions_opened{0};
  std::uint64_t sessions_rejected{0};
  std::uint64_t sessions_shed{0};
  std::uint64_t sessions_closed{0};  // clean CLOSE -> CLOSED finishes
  std::uint64_t packets{0};          // FEED packets accepted into rings
  std::uint64_t rows{0};             // ROWS lines written
  std::size_t active_sessions{0};
  std::size_t clients{0};
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the listener (when options.listen is set). Throws
  /// util::StatusError when the address cannot be bound.
  void start();

  /// "host:actual-port" of the bound listener ("" without one).
  [[nodiscard]] std::string address() const;

  /// Hand the server an already-connected client transport (tests,
  /// in-process harnesses). Thread-compatible with run(): call only
  /// before run() or from the run() thread. The transport keeps the line
  /// cap it was built with; build it with kMaxLineBytes for the daemon's
  /// own (`ERROR line too long`, then a hang-up).
  void adopt_client(std::unique_ptr<shard::Transport> transport);

  /// Serve until stop is requested (then drain: every open session is
  /// finished and gets its final ROWS + CLOSED before return) or — when
  /// running without a listener — until the last client disconnects.
  void run();

  /// Ask run() to drain and return. Thread-safe.
  void request_stop();

  [[nodiscard]] ServeStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace netsample::serve
