// Deterministic wire impairments over a shard::Transport (netfault).
//
// faultsim.h impairs what the *measurement* pipeline sees (pcap bytes,
// packet records); this layer impairs what the *coordination* pipeline
// sees: the lease-protocol lines between coordinator and worker. Same
// philosophy — every impairment is driven by a seeded Rng, so a hostile
// wire is as reproducible as a clean one, and every recovery path in the
// coordinator's failure model (lease expiry, reconnect, torn-write
// rejection) is reachable from a unit test instead of only from a real
// network misbehaving.
//
// Faults are per-line, decided as the line crosses the wrapper in either
// direction:
//
//   drop        the line vanishes (a lost datagram / zeroed ack window)
//   dup         the line is delivered twice (retransmit overlap)
//   trunc       the line's tail is cut mid-byte and the connection closes
//               — a genuinely torn write, the satellite-3 failure
//   delay       the line waits delay-ms before moving (congestion)
//   disconnect  every Nth line closes the connection after delivery
//               (flapping link; deterministic, not probability-driven)
//
// Handshake and shutdown verbs (SPEC, HELLO, STOP, BYE) are exempt: a
// wire that can never complete a handshake tests nothing but the redial
// budget. LEASE, RESULT, FAIL, PING, and PONG are all fair game.
//
// `max-faults` caps the probabilistic impairments so a unit test can
// script "exactly one torn RESULT, then a clean wire" and assert the
// byte-level outcome. The decision sequence is deterministic given the
// seed and the sequence of lines crossing the wrapper.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "shard/transport.h"
#include "util/status.h"

namespace netsample::faultsim {

struct NetFaultSpec {
  std::uint64_t seed{1};
  double drop{0.0};   // per-line probabilities; drop+dup+trunc+delay <= 1
  double dup{0.0};
  double trunc{0.0};
  double delay{0.0};
  int delay_ms{5};               // how long a delayed line waits
  std::uint64_t disconnect_every{0};  // close after every Nth line (0 = off)
  std::uint64_t max_faults{0};        // cap on probabilistic faults (0 = inf)
};

/// Parse "seed=7,drop=0.1,dup=0.05,trunc=0.01,delay=0.2,delay-ms=5,
/// disconnect-every=40,max-faults=3" (any subset, any order). Strict:
/// unknown or repeated keys, malformed numbers (docs/FORMATS.md §4),
/// probabilities outside [0, 1], or a probability sum above 1 are
/// kInvalidArgument.
[[nodiscard]] StatusOr<NetFaultSpec> parse_netfault_spec(
    const std::string& text);

/// Canonical re-encoding (round-trips through parse_netfault_spec).
[[nodiscard]] std::string encode_netfault_spec(const NetFaultSpec& spec);

/// Exact impairment counts, for pinning tests against.
struct NetFaultReport {
  std::uint64_t lines_seen{0};  // impairable lines that crossed the wire
  std::uint64_t dropped{0};
  std::uint64_t duplicated{0};
  std::uint64_t truncated{0};
  std::uint64_t delayed{0};
  std::uint64_t disconnects{0};
};

/// A Transport that forwards to an inner transport through the fault
/// schedule. The schedule (Rng stream, counters, disconnect cadence)
/// outlives any single connection: after a redial, rebind() attaches the
/// new wire and the schedule continues where it left off.
class NetFaultTransport final : public shard::Transport {
 public:
  NetFaultTransport(const NetFaultSpec& spec,
                    std::unique_ptr<shard::Transport> inner);
  ~NetFaultTransport() override;

  /// Attach a fresh inner wire (after a reconnect). Fault state persists.
  void rebind(std::unique_ptr<shard::Transport> inner);

  [[nodiscard]] const NetFaultReport& report() const { return report_; }

  [[nodiscard]] int poll_fd() const override;
  [[nodiscard]] bool write_line(const std::string& line) override;
  [[nodiscard]] bool write_bytes(const std::string& bytes) override;
  [[nodiscard]] shard::ReadResult read_line(std::string* line) override;
  [[nodiscard]] shard::ReadResult drain(
      std::vector<std::string>* lines) override;
  void shutdown_write() override;
  void close() override;
  [[nodiscard]] bool is_closed() const override;
  void append_fds(std::vector<int>* out) const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  NetFaultReport report_;
};

}  // namespace netsample::faultsim
