#include "netsample/session.h"

#include <cmath>
#include <string>
#include <string_view>
#include <utility>

#include "core/targets.h"
#include "exper/runner.h"
#include "shard/grid.h"
#include "util/fields.h"
#include "util/format.h"

namespace netsample {

namespace {

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

std::size_t target_lane_multiplier(const std::string& targets) {
  return targets == "both" ? 2 : 1;
}

/// The CellConfig a session's lanes derive from — the same shape
/// `netsample watch` has always built from its flags.
exper::CellConfig session_cell_config(const SessionSpec& spec) {
  exper::CellConfig cfg;
  cfg.method = spec.method;
  cfg.granularity = spec.granularity;
  cfg.mean_interarrival_usec = spec.mean_iat_usec;
  cfg.replications = spec.replications;
  cfg.base_seed = spec.seed;
  return cfg;
}

}  // namespace

Status validate_session_spec(const SessionSpec& spec) {
  const auto invalid = [](const std::string& msg) {
    return Status(StatusCode::kInvalidArgument, "session: " + msg);
  };
  if (spec.granularity == 0) return invalid("granularity k must be >= 1");
  if (spec.replications < 1 || spec.replications > 1000000) {
    return invalid("replications must be in [1, 1000000]");
  }
  if (spec.targets != "both" && spec.targets != "size" &&
      spec.targets != "iat") {
    return invalid("targets must be both|size|iat, got \"" + spec.targets +
                   "\"");
  }
  const std::size_t lanes = static_cast<std::size_t>(spec.replications) *
                            target_lane_multiplier(spec.targets);
  if (lanes > stream::Engine::kMaxLanes) {
    return invalid("lane count " + std::to_string(lanes) + " exceeds " +
                   std::to_string(stream::Engine::kMaxLanes) +
                   " (replications x targets)");
  }
  if (spec.method == core::Method::kSimpleRandom && spec.population == 0) {
    return invalid(
        "method random draws Algorithm S over a known population; "
        "set population N (e.g. from the previous collection cycle)");
  }
  if ((spec.method == core::Method::kSystematicTimer ||
       spec.method == core::Method::kStratifiedTimer) &&
      !(spec.mean_iat_usec > 0)) {
    return invalid("timer methods need mean-iat USEC to size the timer period");
  }
  if (!finite_nonneg(spec.window_s)) return invalid("window must be >= 0 s");
  if (!finite_nonneg(spec.stride_s)) return invalid("stride must be >= 0 s");
  if (!finite_nonneg(spec.deadline_s)) {
    return invalid("deadline must be >= 0 s");
  }
  if (!finite_nonneg(spec.mean_iat_usec)) {
    return invalid("mean-iat must be >= 0 usec");
  }
  if (spec.chunk_packets == 0) return invalid("chunk must be >= 1 packet");
  if (spec.ring_capacity == 0) return invalid("ring must be >= 1 chunk");
  if (!fields::is_token(spec.tenant, 64)) {
    return invalid("tenant must be 1-64 chars of [A-Za-z0-9._-], got \"" +
                   spec.tenant + "\"");
  }
  return Status::ok();
}

std::vector<stream::LaneSpec> session_lanes(const SessionSpec& spec) {
  exper::CellConfig cfg = session_cell_config(spec);
  std::vector<stream::LaneSpec> lanes;
  for (const auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    if (spec.targets == "size" && target != core::Target::kPacketSize) continue;
    if (spec.targets == "iat" && target != core::Target::kInterarrivalTime) {
      continue;
    }
    const char* prefix = target == core::Target::kPacketSize ? "size" : "iat";
    cfg.target = target;
    for (auto& lane : stream::lanes_for_cell(cfg, spec.population)) {
      lane.label = std::string(prefix) + "/" + lane.label;
      lanes.push_back(std::move(lane));
    }
  }
  return lanes;
}

stream::EngineOptions session_engine_options(const SessionSpec& spec,
                                             const util::CancelToken* cancel) {
  stream::EngineOptions opts;
  opts.window = MicroDuration::from_seconds(spec.window_s);
  opts.stride = MicroDuration::from_seconds(spec.stride_s);
  if (opts.stride.usec == 0) opts.stride = opts.window;  // tumbling
  opts.cancel = cancel;
  return opts;
}

const std::vector<std::string>& session_row_columns() {
  static const std::vector<std::string> columns = {
      "tick", "final",  "start_usec", "end_usec",     "packets", "lane",
      "target", "k",    "n",          "phi",          "significance"};
  return columns;
}

std::vector<std::vector<std::string>> session_row_cells(
    const stream::WindowScore& score) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(score.lanes.size());
  for (const auto& lane : score.lanes) {
    rows.push_back({
        std::to_string(score.tick),
        score.is_final ? "1" : "0",
        std::to_string(score.window_start.usec),
        std::to_string(score.window_end.usec),
        std::to_string(score.packets_seen),
        lane.label,
        core::target_name(lane.target),
        std::to_string(lane.granularity),
        std::to_string(lane.metrics.sample_n),
        fmt_double(lane.metrics.phi, 6),
        fmt_double(lane.metrics.significance, 6),
    });
  }
  return rows;
}

std::string encode_session_spec(const SessionSpec& spec) {
  std::string out = "v=1,m=";
  out += shard::method_token(spec.method);
  out += ",k=";
  fields::append_int(out, spec.granularity);
  out += ",r=";
  fields::append_int(out, spec.replications);
  out += ",s=";
  fields::append_int(out, spec.seed);
  out += ",t=" + spec.targets;
  out += ",w=";
  fields::append_real(out, spec.window_s);
  out += ",st=";
  fields::append_real(out, spec.stride_s);
  out += ",pop=";
  fields::append_int(out, spec.population);
  out += ",iat=";
  fields::append_real(out, spec.mean_iat_usec);
  out += ",chunk=";
  fields::append_int(out, spec.chunk_packets);
  out += ",ring=";
  fields::append_int(out, spec.ring_capacity);
  out += ",dl=";
  fields::append_real(out, spec.deadline_s);
  out += ",tn=" + spec.tenant;
  return out;
}

bool decode_session_spec(const std::string& text, SessionSpec* spec) {
  // Every field encode_session_spec writes is required exactly once; the
  // strictness is the point (a truncated OPEN must not half-apply).
  enum Key { kV, kM, kK, kR, kS, kT, kW, kSt, kPop, kIat, kChunk, kRing, kDl,
             kTn };
  static constexpr std::string_view kKeys[] = {
      "v", "m", "k", "r", "s", "t", "w", "st", "pop", "iat", "chunk", "ring",
      "dl", "tn"};
  SessionSpec parsed;
  const auto value = [&parsed](std::size_t key, std::string_view v) {
    std::uint64_t u = 0;
    switch (key) {
      case kV:
        return v == "1";
      case kM:
        try {
          parsed.method = shard::parse_method_token(std::string(v));
        } catch (const std::invalid_argument&) {
          return false;
        }
        return true;
      case kK:
        return fields::parse_uint(v, &parsed.granularity);
      case kR:
        if (!fields::parse_uint(v, &u, 1000000) || u == 0) return false;
        parsed.replications = static_cast<int>(u);
        return true;
      case kS:
        return fields::parse_uint(v, &parsed.seed);
      case kT:
        parsed.targets = v;
        return v == "both" || v == "size" || v == "iat";
      case kW:
        return fields::parse_real(v, &parsed.window_s);
      case kSt:
        return fields::parse_real(v, &parsed.stride_s);
      case kPop:
        return fields::parse_uint(v, &parsed.population);
      case kIat:
        return fields::parse_real(v, &parsed.mean_iat_usec);
      case kChunk:
      case kRing:
        if (!fields::parse_uint(v, &u) || u == 0) return false;
        (key == kChunk ? parsed.chunk_packets : parsed.ring_capacity) =
            static_cast<std::size_t>(u);
        return true;
      case kDl:
        return fields::parse_real(v, &parsed.deadline_s);
      default:  // kTn
        parsed.tenant = v;
        return fields::is_token(v, 64);
    }
  };
  if (!fields::for_each_key_value(text, ',', kKeys, (1u << 14) - 1, value)
           .ok()) {
    return false;
  }
  *spec = std::move(parsed);
  return true;
}

}  // namespace netsample
