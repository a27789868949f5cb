#include "shard/grid.h"

#include <stdexcept>
#include <string_view>
#include <utility>

#include "exper/journal.h"
#include "exper/runner.h"
#include "util/fields.h"

namespace netsample::shard {

SweepSpec default_sweep_spec() {
  SweepSpec spec;
  spec.targets = {core::Target::kPacketSize, core::Target::kInterarrivalTime};
  spec.methods = {core::Method::kSystematicCount, core::Method::kStratifiedCount,
                  core::Method::kSimpleRandom, core::Method::kSystematicTimer,
                  core::Method::kStratifiedTimer};
  spec.granularities = exper::granularity_ladder();
  return spec;
}

const char* method_token(core::Method m) {
  switch (m) {
    case core::Method::kSystematicCount: return "systematic";
    case core::Method::kStratifiedCount: return "stratified";
    case core::Method::kSimpleRandom: return "random";
    case core::Method::kSystematicTimer: return "timer-systematic";
    case core::Method::kStratifiedTimer: return "timer-stratified";
  }
  throw std::invalid_argument("unknown method");
}

core::Method parse_method_token(const std::string& token) {
  if (token == "systematic") return core::Method::kSystematicCount;
  if (token == "stratified") return core::Method::kStratifiedCount;
  if (token == "random") return core::Method::kSimpleRandom;
  if (token == "timer-systematic") return core::Method::kSystematicTimer;
  if (token == "timer-stratified") return core::Method::kStratifiedTimer;
  throw std::invalid_argument(
      "unknown method '" + token +
      "' (expected systematic|stratified|random|timer-systematic|"
      "timer-stratified)");
}

const char* target_token(core::Target t) {
  return t == core::Target::kPacketSize ? "size" : "iat";
}

core::Target parse_target_token(const std::string& token) {
  if (token == "size") return core::Target::kPacketSize;
  if (token == "iat") return core::Target::kInterarrivalTime;
  throw std::invalid_argument("unknown target '" + token +
                              "' (expected size|iat)");
}

std::string encode_sweep_spec(const SweepSpec& spec) {
  std::string out = "v=1;seed=";
  fields::append_int(out, spec.base_seed);
  out += ";reps=";
  fields::append_int(out, spec.replications);
  out += ";targets=";
  fields::append_list(out, ',', spec.targets,
                      [&out](core::Target t) { out += target_token(t); });
  out += ";methods=";
  fields::append_list(out, ',', spec.methods,
                      [&out](core::Method m) { out += method_token(m); });
  out += ";k=";
  fields::append_list(out, ',', spec.granularities,
                      [&out](std::uint64_t k) { fields::append_int(out, k); });
  if (spec.workload == Workload::kFlow) {
    // Flow fields only appear for flow specs, so packet-sweep encodings are
    // byte-identical to what older coordinators/workers produced.
    out += ";workload=flow;est=";
    fields::append_list(out, ',', spec.estimators, [&out](flow::Estimator e) {
      out += flow::estimator_token(e);
    });
    out += ";ftimeout=";
    fields::append_int(out, spec.flow.idle_timeout_usec);
    out += ";fcap=";
    fields::append_int(out, spec.flow.capacity);
    out += ";emiters=";
    fields::append_int(out, spec.flow.em_iters);
  }
  return out;
}

bool decode_sweep_spec(const std::string& text, SweepSpec* spec) {
  enum Key { kV, kSeed, kReps, kTargets, kMethods, kK,  // required
             kWorkload, kEst, kFtimeout, kFcap, kEmiters };
  static constexpr std::string_view kKeys[] = {
      "v",        "seed", "reps",     "targets", "methods", "k",
      "workload", "est",  "ftimeout", "fcap",    "emiters"};
  SweepSpec parsed;
  bool flow_field = false;
  // A comma list of tokens; the token parsers throw on an unknown one.
  const auto tokens = [](std::string_view list, auto parse, auto* out) {
    return fields::for_each_item(list, ',', [&](std::string_view t) {
      out->push_back(parse(std::string(t)));
      return true;
    });
  };
  const auto value = [&](std::size_t key, std::string_view v) {
    std::uint64_t u = 0;
    switch (key) {
      case kV:
        return v == "1";
      case kSeed:
        return fields::parse_uint(v, &parsed.base_seed);
      case kReps:
        if (!fields::parse_uint(v, &u, 1000000) || u == 0) return false;
        parsed.replications = static_cast<int>(u);
        return true;
      case kTargets:
        return tokens(v, parse_target_token, &parsed.targets);
      case kMethods:
        return tokens(v, parse_method_token, &parsed.methods);
      case kK:
        return fields::for_each_item(v, ',', [&](std::string_view g) {
          if (!fields::parse_uint(g, &u) || u == 0) return false;
          parsed.granularities.push_back(u);
          return true;
        });
      case kWorkload:
        parsed.workload = Workload::kFlow;  // kPacket never emits the field
        return v == "flow";
      case kEst:
        return tokens(v, flow::parse_estimator_token, &parsed.estimators);
      case kFtimeout:
        flow_field = true;
        return fields::parse_uint(v, &parsed.flow.idle_timeout_usec) &&
               parsed.flow.idle_timeout_usec != 0;
      case kFcap:
        flow_field = true;
        return fields::parse_uint(v, &parsed.flow.capacity);
      default:  // kEmiters
        flow_field = true;
        if (!fields::parse_uint(v, &u, 1000000) || u == 0) return false;
        parsed.flow.em_iters = static_cast<int>(u);
        return true;
    }
  };
  try {
    if (!fields::for_each_key_value(text, ';', kKeys, 0b111111, value).ok()) {
      return false;
    }
  } catch (const std::invalid_argument&) {
    return false;  // an unknown target, method or estimator token
  }
  if (parsed.workload == Workload::kFlow && parsed.estimators.empty()) {
    return false;
  }
  if (parsed.workload == Workload::kPacket &&
      (!parsed.estimators.empty() || flow_field)) {
    return false;  // flow-only fields without workload=flow are malformed
  }
  if (parsed.cell_count() == 0) return false;
  *spec = std::move(parsed);
  return true;
}

std::vector<exper::GridTask> build_grid(const SweepSpec& spec,
                                        trace::TraceView interval,
                                        double mean_interarrival_usec,
                                        const core::BinnedTraceCache* cache) {
  std::vector<exper::GridTask> tasks;
  tasks.reserve(spec.cell_count());
  const auto push_cell = [&](core::Target target, core::Method method,
                             std::uint64_t k, std::string journal_suffix) {
    exper::CellConfig cfg;
    cfg.method = method;
    cfg.target = target;
    cfg.granularity = k;
    cfg.interval = interval;
    cfg.mean_interarrival_usec = mean_interarrival_usec;
    cfg.replications = spec.replications;
    cfg.base_seed = spec.base_seed;
    cfg.cache = cache;
    tasks.push_back(exper::GridTask{cfg, /*interval_index=*/0,
                                    std::move(journal_suffix)});
  };
  if (spec.workload == Workload::kFlow) {
    // Estimator-major: both estimator blocks hold IDENTICAL configs (the
    // estimator is applied by the cell runner via grid_estimator), so each
    // (method, k) pair's replications draw the same samples under both
    // estimators — a paired comparison by construction. The estimator must
    // therefore enter the journal key some other way: as the task's
    // journal_suffix (docs/FLOWS.md §4), which is what lets flow sweeps
    // checkpoint/--resume without the two blocks aliasing each other.
    for (std::size_t e = 0; e < spec.estimators.size(); ++e) {
      const std::string suffix =
          std::string(";e=") + flow::estimator_token(spec.estimators[e]);
      for (const core::Method method : spec.methods) {
        for (const std::uint64_t k : spec.granularities) {
          push_cell(core::Target::kPacketSize, method, k, suffix);
        }
      }
    }
    return tasks;
  }
  for (const core::Target target : spec.targets) {
    for (const core::Method method : spec.methods) {
      for (const std::uint64_t k : spec.granularities) {
        push_cell(target, method, k, std::string());
      }
    }
  }
  return tasks;
}

exper::CellConfig derived_cell_config(const exper::GridTask& task,
                                      std::uint64_t base_seed) {
  exper::CellConfig cfg = task.config;
  cfg.base_seed = exper::task_seed(base_seed, cfg.method, cfg.granularity,
                                   task.interval_index);
  cfg.cancel = nullptr;
  return cfg;
}

std::string grid_journal_key(const exper::GridTask& task,
                             std::uint64_t base_seed) {
  return exper::cell_journal_key(derived_cell_config(task, base_seed),
                                 task.interval_index) +
         task.journal_suffix;
}

flow::Estimator grid_estimator(const SweepSpec& spec, std::size_t index) {
  if (spec.workload != Workload::kFlow) {
    throw std::invalid_argument("grid_estimator: not a flow sweep");
  }
  const std::size_t inner = spec.methods.size() * spec.granularities.size();
  const std::size_t e = inner == 0 ? spec.estimators.size() : index / inner;
  if (e >= spec.estimators.size()) {
    throw std::invalid_argument("grid_estimator: task index out of range");
  }
  return spec.estimators[e];
}

}  // namespace netsample::shard
