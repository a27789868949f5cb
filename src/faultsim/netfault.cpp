#include "faultsim/netfault.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <string_view>
#include <thread>

#include "util/fields.h"
#include "util/rng.h"

namespace netsample::faultsim {

namespace {

/// Handshake/shutdown verbs ride a clean wire (see header).
bool exempt_line(const std::string& line) {
  return line == "STOP" || line.rfind("SPEC ", 0) == 0 ||
         line.rfind("HELLO ", 0) == 0 || line.rfind("BYE ", 0) == 0;
}

enum class LineFault { kNone, kDrop, kDup, kTrunc, kDelay };

}  // namespace

StatusOr<NetFaultSpec> parse_netfault_spec(const std::string& text) {
  enum Key { kSeed, kDrop, kDup, kTrunc, kDelay, kDelayMs, kDisconnect,
             kMaxFaults };
  static constexpr std::string_view kKeys[] = {
      "seed",  "drop",     "dup",              "trunc",
      "delay", "delay-ms", "disconnect-every", "max-faults"};
  NetFaultSpec spec;
  std::size_t last_key = 0;
  const auto prob = [](std::string_view v, double* out) {
    return fields::parse_real(v, out) && *out >= 0.0 && *out <= 1.0;
  };
  const auto value = [&](std::size_t key, std::string_view v) {
    last_key = key;
    std::uint64_t ms = 0;
    switch (key) {
      case kSeed: return fields::parse_uint(v, &spec.seed);
      case kDrop: return prob(v, &spec.drop);
      case kDup: return prob(v, &spec.dup);
      case kTrunc: return prob(v, &spec.trunc);
      case kDelay: return prob(v, &spec.delay);
      case kDelayMs:
        if (!fields::parse_uint(v, &ms, 60000)) return false;
        spec.delay_ms = static_cast<int>(ms);
        return true;
      case kDisconnect: return fields::parse_uint(v, &spec.disconnect_every);
      default: return fields::parse_uint(v, &spec.max_faults);
    }
  };
  const auto bad = [&](const std::string& why) {
    return Status(StatusCode::kInvalidArgument,
                  "netfault: " + why + " in \"" + text + "\"");
  };
  using E = fields::KeyValueError;
  const E err = fields::for_each_key_value(text, ',', kKeys, 0, value);
  const std::string where(err.where);
  switch (err.kind) {
    case E::kEmptyItem: return bad("empty item");
    case E::kNotKeyValue:
      return bad("expected key=value, got \"" + where + "\"");
    case E::kUnknownKey: return bad("unknown key \"" + where + "\"");
    case E::kDuplicateKey: return bad("duplicate key \"" + where + "\"");
    case E::kBadValue: {
      const bool is_prob = last_key >= kDrop && last_key <= kDelay;
      return bad("bad " + std::string(kKeys[last_key]) +
                 (is_prob ? " probability" : ""));
    }
    default: break;  // no key is mandatory
  }
  if (spec.drop + spec.dup + spec.trunc + spec.delay > 1.0) {
    return bad("probabilities sum above 1");
  }
  return spec;
}

std::string encode_netfault_spec(const NetFaultSpec& spec) {
  std::string out = "seed=";
  fields::append_int(out, spec.seed);
  const auto prob = [&out](const char* key, double v) {
    if (v <= 0) return;
    out += key;
    fields::append_real(out, v);
  };
  prob(",drop=", spec.drop);
  prob(",dup=", spec.dup);
  prob(",trunc=", spec.trunc);
  if (spec.delay > 0) {
    prob(",delay=", spec.delay);
    out += ",delay-ms=";
    fields::append_int(out, spec.delay_ms);
  }
  if (spec.disconnect_every > 0) {
    out += ",disconnect-every=";
    fields::append_int(out, spec.disconnect_every);
  }
  if (spec.max_faults > 0) {
    out += ",max-faults=";
    fields::append_int(out, spec.max_faults);
  }
  return out;
}

struct NetFaultTransport::Impl {
  NetFaultSpec spec;
  std::unique_ptr<shard::Transport> inner;
  Rng rng;
  std::uint64_t prob_faults{0};
  std::deque<std::string> pending;  // duplicate deliveries awaiting read

  explicit Impl(const NetFaultSpec& s, std::unique_ptr<shard::Transport> t)
      : spec(s), inner(std::move(t)), rng(s.seed) {}

  /// One decision per impairable line, in wire order. `*disconnect` is the
  /// deterministic every-Nth-line close, applied after delivery.
  LineFault decide(const std::string& line, NetFaultReport* report,
                   bool* disconnect) {
    *disconnect = false;
    if (exempt_line(line)) return LineFault::kNone;
    ++report->lines_seen;
    if (spec.disconnect_every > 0 &&
        report->lines_seen % spec.disconnect_every == 0) {
      *disconnect = true;
    }
    if (spec.max_faults > 0 && prob_faults >= spec.max_faults) {
      return LineFault::kNone;
    }
    const double u = rng.uniform01();
    double edge = spec.drop;
    if (u < edge) {
      ++prob_faults;
      ++report->dropped;
      return LineFault::kDrop;
    }
    edge += spec.dup;
    if (u < edge) {
      ++prob_faults;
      ++report->duplicated;
      return LineFault::kDup;
    }
    edge += spec.trunc;
    if (u < edge) {
      ++prob_faults;
      ++report->truncated;
      return LineFault::kTrunc;
    }
    edge += spec.delay;
    if (u < edge) {
      ++prob_faults;
      ++report->delayed;
      return LineFault::kDelay;
    }
    return LineFault::kNone;
  }

  void sleep_delay() {
    std::this_thread::sleep_for(std::chrono::milliseconds(spec.delay_ms));
  }
};

NetFaultTransport::NetFaultTransport(const NetFaultSpec& spec,
                                     std::unique_ptr<shard::Transport> inner)
    : impl_(std::make_unique<Impl>(spec, std::move(inner))) {}

NetFaultTransport::~NetFaultTransport() = default;

void NetFaultTransport::rebind(std::unique_ptr<shard::Transport> inner) {
  impl_->inner = std::move(inner);
  impl_->pending.clear();
}

int NetFaultTransport::poll_fd() const {
  return impl_->inner ? impl_->inner->poll_fd() : -1;
}

bool NetFaultTransport::write_line(const std::string& line) {
  auto& inner = impl_->inner;
  if (!inner || inner->is_closed()) return false;
  bool disconnect = false;
  const LineFault f = impl_->decide(line, &report_, &disconnect);
  bool ok = true;
  switch (f) {
    case LineFault::kNone:
      ok = inner->write_line(line);
      break;
    case LineFault::kDrop:
      ok = true;  // swallowed: the sender believes it went out
      break;
    case LineFault::kDup:
      ok = inner->write_line(line) && inner->write_line(line);
      break;
    case LineFault::kTrunc: {
      // Cut inside the payload (two thirds in lands mid-hexfloat for a
      // RESULT line) and kill the wire — a faithful torn write.
      const std::size_t keep = std::max<std::size_t>(1, line.size() * 2 / 3);
      (void)inner->write_bytes(line.substr(0, keep));
      inner->close();
      return false;
    }
    case LineFault::kDelay:
      impl_->sleep_delay();
      ok = inner->write_line(line);
      break;
  }
  if (disconnect) {
    ++report_.disconnects;
    inner->close();
  }
  return ok;
}

bool NetFaultTransport::write_bytes(const std::string& bytes) {
  // Raw bytes are below the line-fault model: pass through.
  return impl_->inner != nullptr && impl_->inner->write_bytes(bytes);
}

shard::ReadResult NetFaultTransport::read_line(std::string* line) {
  if (!impl_->pending.empty()) {
    *line = std::move(impl_->pending.front());
    impl_->pending.pop_front();
    return shard::ReadResult::kLine;
  }
  auto& inner = impl_->inner;
  while (true) {
    if (!inner) return shard::ReadResult::kClosed;
    const shard::ReadResult r = inner->read_line(line);
    if (r != shard::ReadResult::kLine) return r;
    bool disconnect = false;
    const LineFault f = impl_->decide(*line, &report_, &disconnect);
    const auto finish = [&](shard::ReadResult result) {
      if (disconnect) {
        ++report_.disconnects;
        inner->close();
      }
      return result;
    };
    switch (f) {
      case LineFault::kNone:
        return finish(shard::ReadResult::kLine);
      case LineFault::kDrop:
        if (disconnect) {
          ++report_.disconnects;
          inner->close();
          return shard::ReadResult::kClosed;
        }
        continue;  // the line never arrived
      case LineFault::kDup:
        impl_->pending.push_back(*line);
        return finish(shard::ReadResult::kLine);
      case LineFault::kTrunc:
        // Inbound truncation: the tail never arrived and the wire died;
        // strict framing discards the partial line wholesale.
        inner->close();
        return shard::ReadResult::kClosed;
      case LineFault::kDelay:
        impl_->sleep_delay();
        return finish(shard::ReadResult::kLine);
    }
  }
}

shard::ReadResult NetFaultTransport::drain(std::vector<std::string>* lines) {
  auto& inner = impl_->inner;
  bool any = false;
  while (!impl_->pending.empty()) {
    lines->push_back(std::move(impl_->pending.front()));
    impl_->pending.pop_front();
    any = true;
  }
  if (!inner) return any ? shard::ReadResult::kLine : shard::ReadResult::kClosed;
  std::vector<std::string> raw;
  const shard::ReadResult r = inner->drain(&raw);
  for (auto& line : raw) {
    bool disconnect = false;
    const LineFault f = impl_->decide(line, &report_, &disconnect);
    switch (f) {
      case LineFault::kNone:
        lines->push_back(std::move(line));
        any = true;
        break;
      case LineFault::kDrop:
        break;
      case LineFault::kDup:
        lines->push_back(line);
        lines->push_back(std::move(line));
        any = true;
        break;
      case LineFault::kTrunc:
        inner->close();
        return any ? shard::ReadResult::kLine : shard::ReadResult::kClosed;
      case LineFault::kDelay:
        impl_->sleep_delay();
        lines->push_back(std::move(line));
        any = true;
        break;
    }
    if (disconnect) {
      ++report_.disconnects;
      inner->close();
      return any ? shard::ReadResult::kLine : shard::ReadResult::kClosed;
    }
  }
  if (any) return shard::ReadResult::kLine;
  return r;
}

void NetFaultTransport::shutdown_write() {
  if (impl_->inner) impl_->inner->shutdown_write();
}

void NetFaultTransport::close() {
  if (impl_->inner) impl_->inner->close();
  impl_->pending.clear();
}

bool NetFaultTransport::is_closed() const {
  return impl_->inner == nullptr ||
         (impl_->inner->is_closed() && impl_->pending.empty());
}

void NetFaultTransport::append_fds(std::vector<int>* out) const {
  if (impl_->inner) impl_->inner->append_fds(out);
}

}  // namespace netsample::faultsim
