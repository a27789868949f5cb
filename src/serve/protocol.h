// The `netsample serve` session wire protocol (docs/SERVING.md).
//
// One client connection is one shard::Transport carrying newline-framed
// lines, exactly like the sweep lease wire. A connection multiplexes many
// sessions; every line names the session it concerns:
//
//   client -> server
//     OPEN <id> <spec>          spec = netsample::encode_session_spec()
//     FEED <id> <ts>:<len> ...  packets in arrival order (usec:bytes)
//     CLOSE <id>                no more FEEDs; flush and finish
//     STATS                     one-line server counters
//     BYE                       client departing; open sessions discarded
//
//   server -> client
//     OPENED <id>
//     REJECT <id> <reason> [detail...]   admission control said no
//     ROWS <id> <json>          one streaming row; the payload after the
//                               second space is byte-identical to a
//                               `netsample watch --format jsonl` line
//     SHED <id> <reason>        session dropped under pressure (terminal)
//     CLOSED <id> rows=N packets=N       clean finish (terminal)
//     STATS <k>=<v> ...
//     ERROR <detail...>         protocol violation; connection stays up
//
// FEED timestamps are salvaged with the same running-max clamp rule as
// stream::PcapSource (trace::TimePolicy::kClamp), so a serve session fed
// from a capture replay scores exactly what `netsample watch` scores on
// the same file. Strict framing is inherited from the transport: a torn
// line from a dying peer is discarded, never half-parsed, and a line
// longer than kMaxLineBytes is answered `ERROR line too long` and the
// connection is dropped.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/packet_record.h"
#include "util/timeval.h"

namespace netsample::serve {

/// Session ids are client-chosen tokens of [A-Za-z0-9._-], at most this
/// long — the same alphabet as SessionSpec tenants, for the same reason
/// (they travel space-delimited on the wire).
inline constexpr std::size_t kMaxSessionIdLen = 64;

[[nodiscard]] bool valid_session_id(const std::string& id);

/// Longest client line the daemon accepts, newline excluded.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Most packets one FEED line carries within kMaxLineBytes when every
/// token is at its widest (a 20-digit timestamp and a 5-digit length, 26
/// bytes plus a space) and the session id is at its longest.
inline constexpr std::size_t kMaxFeedPackets =
    (kMaxLineBytes - (sizeof "FEED " - 1) - kMaxSessionIdLen) / 27;

enum class ClientCommand {
  kOpen,
  kFeed,
  kClose,
  kStats,
  kBye,
};

/// One parsed client line.
struct ClientMessage {
  ClientCommand command{ClientCommand::kStats};
  std::string session_id;  // OPEN / FEED / CLOSE
  std::string payload;     // OPEN: encoded spec; FEED: packet tokens
};

/// Parse one client line. False on an unknown verb, a malformed session
/// id, or missing operands, with a human-readable reason in *error (the
/// server echoes it on an ERROR line).
[[nodiscard]] bool parse_client_line(const std::string& line,
                                     ClientMessage* msg, std::string* error);

namespace detail {

/// One client line as the grammar splits it: views into the line.
struct ClientLine {
  ClientCommand command{ClientCommand::kStats};
  std::string_view session_id;
  std::string_view payload;
};

/// The client-line grammar itself, behind parse_client_line: the same
/// verdicts and ERROR reasons, without copying anything out of `line`.
/// The daemon routes every line with it, so a FEED payload is never
/// copied on the protocol thread.
[[nodiscard]] bool split_client_line(std::string_view line, ClientLine* out,
                                     std::string* error);

}  // namespace detail

/// Decoded FEED payload plus the salvage tally.
struct FeedChunk {
  std::vector<trace::PacketRecord> packets;
  std::size_t clamped{0};  // timestamps that ran backwards and were clamped
};

/// Parse a FEED payload ("<ts>:<len> ..."). `last_ts` is the session's
/// running-max timestamp, carried across FEED lines and updated here;
/// out-of-order timestamps are clamped to it and counted. False on any
/// malformed token (zero or oversized length, non-numeric fields) — the
/// session cannot be trusted past a garbled FEED and is shed. `out`'s
/// storage is reused, so a caller that keeps one FeedChunk allocates only
/// while its FEEDs grow.
[[nodiscard]] bool parse_feed_payload(std::string_view payload,
                                      MicroTime* last_ts, FeedChunk* out);

/// Encode packets as a FEED payload (the loadgen/test side of the codec).
[[nodiscard]] std::string encode_feed_payload(
    std::span<const trace::PacketRecord> packets);

}  // namespace netsample::serve
