// Coordinator <-> worker line protocol.
//
// One newline-terminated ASCII message per line over a fd transport's
// bounded framer (shard/transport.h): a socketpair per locally spawned
// worker, or a TCP connection. The coordinator is the only journal writer;
// workers are stateless lease executors, so the exactly-once story lives
// entirely on the coordinator side (docs/SHARDING.md).
//
//   coordinator -> worker
//     SPEC <encoded-sweep-spec>     the grid to rebuild (grid.h codec)
//     LEASE <task-index>            run grid cell <task-index>
//     PING <seq>                    liveness probe (socket transport)
//     STOP                          finish up; worker answers BYE and exits
//
//   worker -> coordinator
//     HELLO pid=<pid> packets=<n> builds=<b> maps=<m>
//                                   store opened; b/m are the worker's
//                                   trace-cache builds/maps since it
//                                   started, never a forking parent's
//                                   (the zero-re-binning assertion:
//                                   b == 0).
//                                   Re-sent after a reconnect — the pid is
//                                   the worker's stable identity, so the
//                                   coordinator rebinds the new connection
//                                   to the same lease bookkeeping.
//     RESULT <task-index> <reps>    cell done; <reps> is the journal's
//                                   hexfloat replication codec, bit-exact
//     FAIL <task-index> <code> <message...>
//                                   cell failed with StatusCode <code>
//     PONG <seq>                    answer to PING <seq>
//     BYE cells=<count>             response to STOP, or an unsolicited
//                                   clean departure (SIGTERM)
//
// parse_message is strict: any malformed line fails the parse, and the
// coordinator treats a worker that emits one as dead (its leases are
// reassigned) — a half-written line from a killed worker can never corrupt
// a result. A line longer than max_lease_line() never reaches the parse:
// the coordinator's framer refuses it (ReadResult::kTooLong), and the
// worker is treated as dead the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace netsample::shard {

enum class MessageType {
  kSpec,
  kLease,
  kStop,
  kHello,
  kResult,
  kFail,
  kBye,
  kPing,
  kPong,
};

struct Message {
  MessageType type{MessageType::kStop};
  std::uint64_t index{0};         // LEASE / RESULT / FAIL / PING / PONG seq
  StatusCode code{StatusCode::kOk};  // FAIL
  std::uint64_t pid{0};           // HELLO
  std::uint64_t packets{0};       // HELLO
  std::uint64_t cache_builds{0};  // HELLO
  std::uint64_t cache_maps{0};    // HELLO
  std::uint64_t cells{0};         // BYE
  std::string text;               // SPEC payload / RESULT reps / FAIL message
};

/// The wire line for a message, WITHOUT the trailing newline.
[[nodiscard]] std::string format_message(const Message& m);

/// The coordinator's line cap in a sweep of `replications`: the widest
/// RESULT the replication codec can produce (every real at its longest
/// hexfloat, every count and the cell index at 20 digits), and never
/// below one read window, which leaves room for HELLO, FAIL, PONG and BYE.
[[nodiscard]] std::size_t max_lease_line(std::size_t replications);

/// Strict parse of one line (no trailing newline). Returns false on any
/// mismatch; *m is unspecified then.
[[nodiscard]] bool parse_message(const std::string& line, Message* m);

}  // namespace netsample::shard
