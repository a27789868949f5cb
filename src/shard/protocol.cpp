#include "shard/protocol.h"

#include <string_view>

#include "util/fields.h"

namespace netsample::shard {

namespace {

using fields::consume;

/// "<name><u64>" up to the next space (or the end of the line when `last`).
bool take_field(std::string_view* p, std::string_view name, std::uint64_t* out,
                bool last, std::uint64_t max = fields::kMaxUint) {
  std::string_view value;
  return consume(p, name) && fields::cut(p, ' ', &value) != last &&
         fields::parse_uint(value, out, max);
}

}  // namespace

std::string format_message(const Message& m) {
  std::string out;
  const auto put = [&out](std::string_view text, std::uint64_t v) {
    out += text;
    fields::append_int(out, v);
  };
  switch (m.type) {
    case MessageType::kSpec: return "SPEC " + m.text;
    case MessageType::kStop: return "STOP";
    case MessageType::kLease: put("LEASE ", m.index); break;
    case MessageType::kHello:
      put("HELLO pid=", m.pid);
      put(" packets=", m.packets);
      put(" builds=", m.cache_builds);
      put(" maps=", m.cache_maps);
      break;
    case MessageType::kResult: put("RESULT ", m.index); break;
    case MessageType::kFail:
      put("FAIL ", m.index);
      put(" ", static_cast<std::uint64_t>(m.code));
      break;
    case MessageType::kBye: put("BYE cells=", m.cells); break;
    case MessageType::kPing: put("PING ", m.index); break;
    case MessageType::kPong: put("PONG ", m.index); break;
  }
  // RESULT and FAIL end in free text after one more space.
  if (m.type == MessageType::kResult || m.type == MessageType::kFail) {
    out += ' ';
    out += m.text;
  }
  return out;
}

bool parse_message(const std::string& line, Message* m) {
  std::string_view p = line;
  *m = Message{};
  if (consume(&p, "SPEC ")) {
    m->type = MessageType::kSpec;
    m->text = p;
    return !p.empty();
  }
  if (consume(&p, "LEASE ")) {
    m->type = MessageType::kLease;
    return fields::parse_uint(p, &m->index);
  }
  if (line == "STOP") {
    m->type = MessageType::kStop;
    return true;
  }
  if (consume(&p, "HELLO ")) {
    m->type = MessageType::kHello;
    return take_field(&p, "pid=", &m->pid, false) &&
           take_field(&p, "packets=", &m->packets, false) &&
           take_field(&p, "builds=", &m->cache_builds, false) &&
           take_field(&p, "maps=", &m->cache_maps, true);
  }
  if (consume(&p, "RESULT ")) {
    m->type = MessageType::kResult;
    if (!take_field(&p, "", &m->index, false)) return false;
    m->text = p;
    return !p.empty();
  }
  if (consume(&p, "FAIL ")) {
    m->type = MessageType::kFail;
    std::uint64_t code = 0;
    constexpr auto kMaxCode =
        static_cast<std::uint64_t>(StatusCode::kDeadlineExceeded);
    if (!take_field(&p, "", &m->index, false) ||
        !take_field(&p, "", &code, false, kMaxCode)) {
      return false;
    }
    m->code = static_cast<StatusCode>(code);
    m->text = p;  // may legitimately be empty
    return true;
  }
  if (consume(&p, "BYE ")) {
    m->type = MessageType::kBye;
    return take_field(&p, "cells=", &m->cells, true);
  }
  if (consume(&p, "PING ")) {
    m->type = MessageType::kPing;
    return fields::parse_uint(p, &m->index);
  }
  if (consume(&p, "PONG ")) {
    m->type = MessageType::kPong;
    return fields::parse_uint(p, &m->index);
  }
  return false;
}

}  // namespace netsample::shard
