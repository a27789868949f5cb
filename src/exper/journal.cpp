#include "exper/journal.h"

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <fstream>
#include <iterator>
#include <string_view>
#include <utility>

#include "exper/runner.h"
#include "obs/metrics.h"
#include "util/fields.h"

namespace netsample::exper {

namespace {

// ---------------------------------------------------------------------------
// Line encoding. One JSON object per line; doubles as hexfloat strings so
// every bit of the metric round-trips (printf "%a" with no precision emits
// an exact representation, and fields::parse_hexfloat reads it back bit for
// bit). A replication is a fixed-order schema over DisparityMetrics that
// the encoder and the strict decoder both walk. Any mismatch fails the whole
// line, which open() then counts as dropped — a journal line is either
// perfectly intact or ignored.
// ---------------------------------------------------------------------------

struct RepField {
  const char* name;
  double core::DisparityMetrics::*real;          // a "%a" string, or
  std::uint64_t core::DisparityMetrics::*count;  // a base-10 count
};
constexpr RepField kRepFields[] = {
    {"chi2", &core::DisparityMetrics::chi2, nullptr},
    {"dof", &core::DisparityMetrics::dof, nullptr},
    {"sig", &core::DisparityMetrics::significance, nullptr},
    {"cost", &core::DisparityMetrics::cost, nullptr},
    {"rcost", &core::DisparityMetrics::rcost, nullptr},
    {"x2", &core::DisparityMetrics::x2, nullptr},
    {"and", &core::DisparityMetrics::avg_norm_dev, nullptr},
    {"phi", &core::DisparityMetrics::phi, nullptr},
    {"sn", nullptr, &core::DisparityMetrics::sample_n},
    {"pn", nullptr, &core::DisparityMetrics::population_n},
};

/// The fields of one replication object, between its braces: ten
/// comma-separated "name":value items in kRepFields order.
bool decode_rep_fields(std::string_view list, core::DisparityMetrics* m) {
  std::size_t i = 0;
  const bool ok = fields::for_each_item(list, ',', [&](std::string_view item) {
    if (i == std::size(kRepFields)) return false;
    const RepField& f = kRepFields[i++];
    std::string_view value;
    if (!fields::consume(&item, "\"") || !fields::consume(&item, f.name) ||
        !fields::consume(&item, "\":")) {
      return false;
    }
    if (f.count != nullptr) return fields::parse_uint(item, &(m->*f.count));
    return fields::consume(&item, "\"") && fields::cut(&item, '"', &value) &&
           item.empty() && fields::parse_hexfloat(value, &(m->*f.real));
  });
  return ok && i == std::size(kRepFields);
}

std::string encode_line(const std::string& key,
                        const std::vector<core::DisparityMetrics>& reps) {
  return "{\"key\":\"" + key + "\",\"reps\":" + encode_replications(reps) + "}";
}

bool decode_line(const std::string& line, std::string* key,
                 std::vector<core::DisparityMetrics>* reps) {
  std::string_view p = line;
  std::string_view key_text;
  if (!fields::consume(&p, "{\"key\":\"") || !fields::cut(&p, '"', &key_text) ||
      !fields::consume(&p, ",\"reps\":") || !p.ends_with('}')) {
    return false;
  }
  p.remove_suffix(1);
  key->assign(key_text);
  return decode_replications(std::string(p), reps);
}

Status write_and_sync(std::FILE* f, const std::string& data,
                      const std::string& path) {
  if (std::fwrite(data.data(), 1, data.size(), f) != data.size() ||
      std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
    return Status(StatusCode::kDataLoss,
                  "journal: short write to '" + path + "'");
  }
  return Status::ok();
}

}  // namespace

std::string encode_replications(
    const std::vector<core::DisparityMetrics>& reps) {
  std::string out = "[";
  fields::append_list(out, ',', reps, [&out](const core::DisparityMetrics& m) {
    out += '{';
    fields::append_list(out, ',', kRepFields, [&](const RepField& f) {
      out += '"';
      out += f.name;
      out += "\":";
      if (f.count != nullptr) {
        fields::append_int(out, m.*f.count);
      } else {
        out += '"';
        fields::append_hexfloat(out, m.*f.real);
        out += '"';
      }
    });
    out += '}';
  });
  out += ']';
  return out;
}

bool decode_replications(const std::string& text,
                         std::vector<core::DisparityMetrics>* reps) {
  // "[" then comma-separated {...} objects, then "]", and nothing else.
  std::string_view p = text;
  reps->clear();
  if (!fields::consume(&p, "[")) return false;
  if (fields::consume(&p, "]")) return p.empty();
  std::string_view object;
  do {
    core::DisparityMetrics m;
    if (!fields::consume(&p, "{") || !fields::cut(&p, '}', &object) ||
        !decode_rep_fields(object, &m)) {
      return false;
    }
    reps->push_back(m);
  } while (fields::consume(&p, ","));
  return p == "]";
}

std::string cell_journal_key(const CellConfig& config,
                             std::uint64_t interval_index) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "m=%s;t=%s;k=%" PRIu64 ";i=%" PRIu64 ";n=%zu;r=%d;s=%016" PRIx64,
                core::method_name(config.method),
                core::target_name(config.target), config.granularity,
                interval_index, config.interval.size(), config.replications,
                config.base_seed);
  return buf;
}

CheckpointJournal::~CheckpointJournal() {
  if (out_ != nullptr) std::fclose(out_);
}

CheckpointJournal::CheckpointJournal(CheckpointJournal&& other) noexcept
    : path_(std::move(other.path_)),
      out_(std::exchange(other.out_, nullptr)),
      dropped_lines_(other.dropped_lines_),
      entries_(std::move(other.entries_)) {}

CheckpointJournal& CheckpointJournal::operator=(
    CheckpointJournal&& other) noexcept {
  if (this != &other) {
    if (out_ != nullptr) std::fclose(out_);
    path_ = std::move(other.path_);
    out_ = std::exchange(other.out_, nullptr);
    dropped_lines_ = other.dropped_lines_;
    entries_ = std::move(other.entries_);
  }
  return *this;
}

StatusOr<CheckpointJournal> CheckpointJournal::open(const std::string& path) {
  CheckpointJournal j;
  j.path_ = path;

  // Load whatever valid prefix an earlier (possibly killed) run left behind.
  std::vector<std::string> valid_lines;
  {
    std::ifstream in(path);
    std::string line;
    while (in && std::getline(in, line)) {
      if (line.empty()) continue;
      std::string key;
      std::vector<core::DisparityMetrics> reps;
      if (decode_line(line, &key, &reps)) {
        // Later lines win, matching record()'s overwrite semantics.
        j.entries_[key] = std::move(reps);
        valid_lines.push_back(line);
      } else {
        ++j.dropped_lines_;
      }
    }
  }

  // Rewrite the cleaned journal via write-then-rename so the visible file
  // never holds a torn line, then reopen it for appending.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status(StatusCode::kNotFound,
                  "journal: cannot create '" + tmp + "'");
  }
  std::string blob;
  for (const auto& line : valid_lines) {
    blob += line;
    blob += '\n';
  }
  const Status ws = write_and_sync(f, blob, tmp);
  std::fclose(f);
  if (!ws.is_ok()) return ws;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status(StatusCode::kInternal,
                  "journal: rename '" + tmp + "' -> '" + path + "' failed");
  }

  j.out_ = std::fopen(path.c_str(), "ab");
  if (j.out_ == nullptr) {
    return Status(StatusCode::kNotFound,
                  "journal: cannot append to '" + path + "'");
  }
  return j;
}

Status CheckpointJournal::record(
    const std::string& key, const std::vector<core::DisparityMetrics>& reps) {
  if (out_ == nullptr) {
    return Status(StatusCode::kInternal, "journal: not open");
  }
  Status ws = Status::ok();
  if (obs::enabled()) {
    // Each record is an fflush+fsync, so flush latency is the journal's
    // whole cost story; wall time → nondeterministic section.
    const auto t0 = std::chrono::steady_clock::now();
    ws = write_and_sync(out_, encode_line(key, reps) + "\n", path_);
    const auto dt = std::chrono::steady_clock::now() - t0;
    auto& reg = obs::registry();
    static obs::Counter& records =
        reg.counter("netsample_journal_records_total");
    static obs::Counter& flush_ns =
        reg.counter("netsample_journal_flush_ns_total",
                    obs::Determinism::kNondeterministic);
    static obs::HistogramMetric& flush_hist = reg.histogram(
        "netsample_journal_flush_seconds", obs::duration_bin_edges(),
        obs::Determinism::kNondeterministic);
    records.increment();
    flush_ns.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
    flush_hist.observe(std::chrono::duration<double>(dt).count());
  } else {
    ws = write_and_sync(out_, encode_line(key, reps) + "\n", path_);
  }
  if (!ws.is_ok()) return ws;
  entries_[key] = reps;
  return Status::ok();
}

const std::vector<core::DisparityMetrics>* CheckpointJournal::find(
    const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

StatusOr<JournalCompactionStats> CheckpointJournal::compact_file(
    const std::string& path) {
  JournalCompactionStats stats;
  std::vector<std::string> key_order;         // first appearance
  std::map<std::string, std::string> latest;  // key -> newest full line
  {
    std::ifstream in(path);
    if (!in.is_open()) {
      return Status(StatusCode::kNotFound,
                    "journal: cannot open '" + path + "'");
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::string key;
      std::vector<core::DisparityMetrics> reps;
      if (!decode_line(line, &key, &reps)) {
        ++stats.dropped_lines;
        continue;
      }
      ++stats.lines_before;
      if (latest.find(key) == latest.end()) {
        key_order.push_back(key);
      } else {
        ++stats.duplicate_keys;
      }
      latest[key] = std::move(line);
    }
  }
  stats.lines_after = key_order.size();

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status(StatusCode::kInternal, "journal: cannot create '" + tmp + "'");
  }
  std::string blob;
  for (const auto& key : key_order) {
    blob += latest[key];
    blob += '\n';
  }
  const Status ws = write_and_sync(f, blob, tmp);
  std::fclose(f);
  if (!ws.is_ok()) return ws;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status(StatusCode::kInternal,
                  "journal: rename '" + tmp + "' -> '" + path + "' failed");
  }

  if (obs::enabled()) {
    auto& reg = obs::registry();
    static obs::Counter& compactions =
        reg.counter("netsample_journal_compactions_total");
    static obs::Counter& removed =
        reg.counter("netsample_journal_compaction_removed_total");
    compactions.increment();
    removed.add(stats.duplicate_keys + stats.dropped_lines);
  }
  return stats;
}

}  // namespace netsample::exper
