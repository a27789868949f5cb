#include "stream/engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/bin_ladders.h"
#include "core/select_indices.h"
#include "obs/metrics.h"

namespace netsample::stream {

namespace {

struct StreamMetrics {
  obs::Counter& packets;
  obs::Counter& chunks;
  obs::Counter& snapshots;
  obs::Gauge& window_peak;
  obs::HistogramMetric& score_seconds;
};

StreamMetrics& stream_metrics() {
  auto& reg = obs::registry();
  static StreamMetrics m{
      reg.counter("netsample_stream_packets_total"),
      reg.counter("netsample_stream_chunks_total"),
      reg.counter("netsample_stream_snapshots_total"),
      reg.gauge("netsample_stream_window_packets_peak"),
      reg.histogram("netsample_stream_score_seconds", obs::duration_bin_edges(),
                    obs::Determinism::kNondeterministic),
  };
  return m;
}

}  // namespace

std::vector<LaneSpec> lanes_for_cell(const exper::CellConfig& config,
                                     std::uint64_t population_override) {
  std::vector<LaneSpec> lanes;
  lanes.reserve(static_cast<std::size_t>(config.replications));
  for (int r = 0; r < config.replications; ++r) {
    LaneSpec lane;
    lane.spec = exper::replication_spec(config, r);
    if (population_override != 0) lane.spec.population = population_override;
    lane.target = config.target;
    lane.label = "r" + std::to_string(r);
    lanes.push_back(std::move(lane));
  }
  return lanes;
}

// Lanes with equal SamplerSpecs select the same packets, so they share one
// cursor and its sample histograms (one per target).
struct Engine::Selector {
  core::SamplerSpec spec;
  core::SelectCursor cursor;
  std::vector<std::uint64_t> size_counts;
  std::vector<std::uint64_t> gap_counts;
  std::deque<std::uint64_t> picks;  // selected positions still in window
  std::vector<std::size_t> lanes;
};

namespace {

const core::PaperBinLadders& ladders() {
  static const core::PaperBinLadders instance;
  return instance;
}

// Lanes whose specs agree on every field select the same packets.
bool same_selection(const core::SamplerSpec& a, const core::SamplerSpec& b) {
  return a.method == b.method && a.granularity == b.granularity &&
         a.offset == b.offset && a.population == b.population &&
         a.mean_interarrival_usec == b.mean_interarrival_usec &&
         a.seed == b.seed && a.expiry_policy == b.expiry_policy &&
         a.timer_phase_usec == b.timer_phase_usec;
}

}  // namespace

Engine::Engine(std::vector<LaneSpec> lanes, EngineOptions options)
    : options_(options),
      size_layout_(core::make_target_histogram(core::Target::kPacketSize)),
      gap_layout_(core::make_target_histogram(core::Target::kInterarrivalTime)),
      pop_size_counts_(size_layout_.bin_count(), 0),
      pop_gap_counts_(gap_layout_.bin_count(), 0) {
  if (lanes.size() > kMaxLanes) {
    throw std::invalid_argument("stream::Engine: more than 64 lanes");
  }
  if (options_.window.usec < 0 || options_.stride.usec < 0) {
    throw std::invalid_argument("stream::Engine: negative window or stride");
  }
  lanes_.reserve(lanes.size());
  for (auto& spec : lanes) {
    Lane lane;
    lane.selector = static_cast<std::size_t>(
        std::find_if(selectors_.begin(), selectors_.end(),
                     [&](const Selector& sel) {
                       return same_selection(sel.spec, spec.spec);
                     }) -
        selectors_.begin());
    if (lane.selector == selectors_.size()) {
      selectors_.push_back(Selector{
          spec.spec, core::SelectCursor(spec.spec),  // throws on bad specs
          std::vector<std::uint64_t>(size_layout_.bin_count(), 0),
          std::vector<std::uint64_t>(gap_layout_.bin_count(), 0),
          {},
          {}});
    }
    selectors_[lane.selector].lanes.push_back(lanes_.size());
    lane.spec = std::move(spec);
    lanes_.push_back(std::move(lane));
  }
  if (options_.collect_indices) indices_.resize(lanes_.size());
}

Engine::~Engine() = default;
Engine::Engine(Engine&&) = default;
Engine& Engine::operator=(Engine&&) = default;

void Engine::feed(std::span<const trace::PacketRecord> chunk) {
  if (finished_) throw std::logic_error("stream::Engine: feed after finish");
  if (chunk.empty()) return;
  const std::size_t n = chunk.size();
  ts_.resize(n + 1);
  sizes_.resize(n);
  ts_[0] = started_ ? prev_ts_.usec : chunk.front().timestamp.usec;
  for (std::size_t i = 0; i < n; ++i) {
    ts_[i + 1] = chunk[i].timestamp.usec;
    sizes_[i] = chunk[i].size;
    if (ts_[i + 1] < ts_[i]) {
      throw std::invalid_argument(
          "stream::Engine: packets must arrive in time order");
    }
  }
  size_bins_.resize(n);
  gap_bins_.resize(n + 1);
  ladders().classify_sizes(sizes_, size_bins_.data());
  ladders().classify_gaps(ts_, gap_bins_.data());

  // Runs end at the next cancel poll and before the first packet that
  // crosses the next tick, so both happen exactly where a packet-at-a-time
  // loop would put them.
  for (std::size_t i = 0; i < n;) {
    const std::uint64_t to_poll =
        util::kCancelPollStride - packets_ % util::kCancelPollStride;
    if (to_poll == util::kCancelPollStride) {
      util::throw_if_stopped(options_.cancel);
    }
    if (!started_) start_stream(ts_[i + 1]);
    std::size_t end = i + static_cast<std::size_t>(std::min<std::uint64_t>(
                              n - i, to_poll));
    if (options_.stride.usec > 0) {
      emit_ticks(MicroTime{ts_[i + 1]});
      end = static_cast<std::size_t>(
          std::lower_bound(ts_.begin() + static_cast<std::ptrdiff_t>(i + 2),
                           ts_.begin() + static_cast<std::ptrdiff_t>(end + 1),
                           next_tick_.usec) -
          ts_.begin() - 1);
    }
    ingest(i, end);
    i = end;
  }
  if (obs::enabled()) {
    auto& m = stream_metrics();
    m.chunks.increment();
    m.packets.add(n);
    m.window_peak.max(static_cast<double>(window_peak_));
  }
}

void Engine::start_stream(std::uint64_t ts) {
  started_ = true;
  first_ts_ = MicroTime{ts};
  prev_ts_ = first_ts_;
  for (auto& sel : selectors_) sel.cursor.begin(ts);
  if (options_.stride.usec > 0) next_tick_ = first_ts_ + options_.stride;
}

void Engine::ingest(std::size_t begin, std::size_t end) {
  const bool windowed = options_.window.usec > 0;
  const std::size_t len = end - begin;
  const std::uint64_t first = packets_;
  const std::span<const std::uint64_t> ts(ts_.data() + begin + 1, len);
  const std::uint8_t* sbin = size_bins_.data() + begin;
  const std::uint8_t* gbin = gap_bins_.data() + begin + 1;
  // A packet's interarrival gap references its stream predecessor; it is
  // in scope unless the packet opens the stream (drain mode) or the
  // current window (rolling mode). Only a run's first packet can do either:
  // every later one follows a packet the run just ingested.
  const bool lead_gap = windowed ? !window_.empty() : packets_ > 0;

  for (std::size_t k = 0; k < len; ++k) ++pop_size_counts_[sbin[k]];
  for (std::size_t k = lead_gap ? 0 : 1; k < len; ++k) {
    ++pop_gap_counts_[gbin[k]];
  }

  for (auto& sel : selectors_) {
    run_picks_.clear();
    sel.cursor.advance(ts, &run_picks_);
    for (const std::size_t pos : run_picks_) {
      const std::size_t k = pos - first;
      ++sel.size_counts[sbin[k]];
      if (k > 0 || lead_gap) ++sel.gap_counts[gbin[k]];
    }
    if (windowed) {
      sel.picks.insert(sel.picks.end(), run_picks_.begin(), run_picks_.end());
    }
    if (options_.collect_indices) {
      for (const std::size_t lane : sel.lanes) {
        indices_[lane].insert(indices_[lane].end(), run_picks_.begin(),
                              run_picks_.end());
      }
    }
  }

  if (windowed) {
    const auto w = static_cast<std::uint64_t>(options_.window.usec);
    for (std::size_t k = 0; k < len; ++k) {
      // Without periodic ticks nobody else trims the deque; keep the memory
      // bound per-packet instead (before the packet joins the window).
      if (options_.stride.usec <= 0 && ts[k] > w) evict_to(ts[k] - w);
      window_.push_back(Entry{ts[k], sbin[k], gbin[k], k > 0 || lead_gap});
      window_peak_ = std::max<std::uint64_t>(window_peak_, window_.size());
    }
  }

  prev_ts_ = MicroTime{ts[len - 1]};
  packets_ += len;
}

void Engine::emit_ticks(MicroTime now) {
  while (now >= next_tick_) {
    const MicroTime tick = next_tick_;
    if (options_.window.usec > 0) {
      const auto w = static_cast<std::uint64_t>(options_.window.usec);
      evict_to(tick.usec > w ? tick.usec - w : 0);
    }
    const std::uint64_t w = options_.window.usec > 0
                                ? static_cast<std::uint64_t>(options_.window.usec)
                                : tick.usec;
    const MicroTime start{std::max(first_ts_.usec,
                                   tick.usec > w ? tick.usec - w : 0)};
    ++tick_index_;
    const WindowScore ws = score(tick_index_, /*is_final=*/false, start, tick);
    if (obs::enabled()) stream_metrics().snapshots.increment();
    if (snapshot_fn_) snapshot_fn_(ws);
    next_tick_ = next_tick_ + options_.stride;
  }
}

void Engine::evict_to(std::uint64_t cutoff_usec) {
  std::size_t gone = 0;
  while (gone < window_.size() && window_[gone].ts < cutoff_usec) ++gone;
  if (gone == 0) return;
  const std::uint64_t new_base = window_base_ + gone;
  for (auto& sel : selectors_) {
    while (!sel.picks.empty() && sel.picks.front() < new_base) {
      const Entry& e = window_[sel.picks.front() - window_base_];
      --sel.size_counts[e.size_bin];
      if (e.gap_in_hist) --sel.gap_counts[e.gap_bin];
      sel.picks.pop_front();
    }
  }
  for (std::size_t k = 0; k < gone; ++k) {
    const Entry& e = window_[k];
    --pop_size_counts_[e.size_bin];
    if (e.gap_in_hist) --pop_gap_counts_[e.gap_bin];
  }
  window_.erase(window_.begin(),
                window_.begin() + static_cast<std::ptrdiff_t>(gone));
  window_base_ = new_base;
  // The surviving front just lost its predecessor; its gap leaves scope.
  if (!window_.empty() && window_.front().gap_in_hist) {
    Entry& f = window_.front();
    --pop_gap_counts_[f.gap_bin];
    for (auto& sel : selectors_) {
      if (!sel.picks.empty() && sel.picks.front() == window_base_) {
        --sel.gap_counts[f.gap_bin];
      }
    }
    f.gap_in_hist = false;
  }
}

WindowScore Engine::score(std::uint64_t tick, bool is_final, MicroTime start,
                          MicroTime end) const {
  const auto t0 = std::chrono::steady_clock::now();
  WindowScore ws;
  ws.tick = tick;
  ws.is_final = is_final;
  ws.window_start = start;
  ws.window_end = end;
  ws.packets_seen = packets_;
  ws.lanes.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    LaneScore ls;
    ls.label = lane.spec.label;
    ls.target = lane.spec.target;
    ls.granularity = lane.spec.spec.granularity;
    const bool size_target = lane.spec.target == core::Target::kPacketSize;
    const auto& layout = size_target ? size_layout_ : gap_layout_;
    const auto& pop_counts = size_target ? pop_size_counts_ : pop_gap_counts_;
    const Selector& sel = selectors_[lane.selector];
    std::uint64_t pop_total = 0;
    for (const auto c : pop_counts) pop_total += c;
    if (pop_total > 0) {
      std::vector<double> edges(layout.edges().begin(), layout.edges().end());
      const auto population = stats::Histogram::with_counts(edges, pop_counts);
      const auto observed = stats::Histogram::with_counts(
          std::move(edges), size_target ? sel.size_counts : sel.gap_counts);
      ls.metrics = core::score_sample(
          observed, population,
          1.0 / static_cast<double>(lane.spec.spec.granularity));
    }
    ws.lanes.push_back(std::move(ls));
  }
  if (obs::enabled()) {
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    stream_metrics().score_seconds.observe(dt.count());
  }
  return ws;
}

WindowScore Engine::finish() {
  if (finished_) throw std::logic_error("stream::Engine: finish called twice");
  finished_ = true;
  util::throw_if_stopped(options_.cancel);
  if (!started_) return WindowScore{0, true, {}, {}, 0, {}};
  MicroTime start = first_ts_;
  if (options_.window.usec > 0) {
    const auto w = static_cast<std::uint64_t>(options_.window.usec);
    evict_to(prev_ts_.usec > w ? prev_ts_.usec - w : 0);
    start = MicroTime{std::max(first_ts_.usec,
                               prev_ts_.usec > w ? prev_ts_.usec - w : 0)};
  }
  if (obs::enabled()) {
    stream_metrics().window_peak.max(static_cast<double>(window_peak_));
  }
  return score(/*tick=*/0, /*is_final=*/true, start, prev_ts_);
}

WindowScore Engine::current() const {
  if (!started_) return WindowScore{0, false, {}, {}, 0, {}};
  const MicroTime start =
      options_.window.usec > 0 && !window_.empty()
          ? MicroTime{window_.front().ts}
          : first_ts_;
  return score(/*tick=*/0, /*is_final=*/false, start, prev_ts_);
}

}  // namespace netsample::stream
