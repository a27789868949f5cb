#include "serve/protocol.h"

#include <string_view>

#include "util/fields.h"

namespace netsample::serve {

bool valid_session_id(const std::string& id) {
  return fields::is_token(id, kMaxSessionIdLen);
}

namespace detail {

bool split_client_line(std::string_view line, ClientLine* out,
                       std::string* error) {
  // Consecutive spaces are a framing error surfaced as an empty token by
  // the "bad session id" / "missing payload" checks.
  std::string_view rest = line;
  std::string_view verb;
  const bool operands = fields::cut(&rest, ' ', &verb);
  const auto fail = [error](const std::string& why) {
    *error = why;
    return false;
  };
  *out = ClientLine{};
  if (verb == "STATS" || verb == "BYE") {
    if (operands) return fail(std::string(verb) + " takes no operands");
    out->command =
        verb == "STATS" ? ClientCommand::kStats : ClientCommand::kBye;
    return true;
  }
  if (verb != "OPEN" && verb != "FEED" && verb != "CLOSE") {
    return fail("unknown verb \"" + std::string(verb) + "\"");
  }
  std::string_view id;
  const bool payload = fields::cut(&rest, ' ', &id);
  if (!fields::is_token(id, kMaxSessionIdLen)) {
    return fail(std::string(verb) + ": bad session id");
  }
  out->session_id = id;
  if (verb == "CLOSE") {
    if (payload) return fail("CLOSE takes only a session id");
    out->command = ClientCommand::kClose;
    return true;
  }
  // OPEN and FEED carry the rest of the line as payload.
  if (rest.empty()) return fail(std::string(verb) + ": missing payload");
  out->command = verb == "OPEN" ? ClientCommand::kOpen : ClientCommand::kFeed;
  out->payload = rest;
  return true;
}

}  // namespace detail

bool parse_client_line(const std::string& line, ClientMessage* msg,
                       std::string* error) {
  detail::ClientLine split;
  if (!detail::split_client_line(line, &split, error)) return false;
  msg->command = split.command;
  msg->session_id = split.session_id;
  msg->payload = split.payload;
  return true;
}

bool parse_feed_payload(std::string_view payload, MicroTime* last_ts,
                        FeedChunk* out) {
  out->packets.clear();
  out->clamped = 0;
  const bool ok =
      fields::for_each_item(payload, ' ', [&](std::string_view token) {
        std::string_view ts_text;
        std::uint64_t ts = 0;
        std::uint64_t len = 0;
        if (!fields::cut(&token, ':', &ts_text) ||
            !fields::parse_uint(ts_text, &ts) ||
            !fields::parse_uint(token, &len, 65535) || len == 0) {
          return false;
        }
        if (ts < last_ts->usec) {
          ts = last_ts->usec;  // PcapSource's running-max salvage rule
          ++out->clamped;
        }
        last_ts->usec = ts;
        trace::PacketRecord record;
        record.timestamp = MicroTime{ts};
        record.size = static_cast<std::uint16_t>(len);
        out->packets.push_back(record);
        return true;
      });
  return ok && !out->packets.empty();
}

std::string encode_feed_payload(
    std::span<const trace::PacketRecord> packets) {
  std::string out;
  out.reserve(packets.size() * 12);
  fields::append_list(out, ' ', packets, [&out](const trace::PacketRecord& p) {
    fields::append_int(out, p.timestamp.usec);
    out += ':';
    fields::append_int(out, p.size);
  });
  return out;
}

}  // namespace netsample::serve
