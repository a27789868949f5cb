#include "reference_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace netsample::stream::reference {

ReferenceEngine::ReferenceEngine(std::vector<LaneSpec> lanes,
                                 EngineOptions options)
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
    lane.sampler = core::make_sampler(spec.spec);  // throws on bad specs
    const auto& layout = spec.target == core::Target::kPacketSize
                             ? size_layout_
                             : gap_layout_;
    lane.counts.assign(layout.bin_count(), 0);
    lane.spec = std::move(spec);
    lanes_.push_back(std::move(lane));
  }
  if (options_.collect_indices) indices_.resize(lanes_.size());
}

void ReferenceEngine::feed(std::span<const trace::PacketRecord> chunk) {
  if (finished_) throw std::logic_error("stream::Engine: feed after finish");
  for (const auto& p : chunk) {
    if (packets_ % util::kCancelPollStride == 0) {
      util::throw_if_stopped(options_.cancel);
    }
    if (!started_) {
      started_ = true;
      first_ts_ = p.timestamp;
      prev_ts_ = p.timestamp;
      for (auto& lane : lanes_) lane.sampler->begin(p.timestamp);
      if (options_.stride.usec > 0) next_tick_ = first_ts_ + options_.stride;
    } else if (p.timestamp < prev_ts_) {
      throw std::invalid_argument(
          "stream::Engine: packets must arrive in time order");
    }
    if (options_.stride.usec > 0) emit_ticks(p.timestamp);
    ingest(p);
  }
}

void ReferenceEngine::ingest(const trace::PacketRecord& p) {
  const bool windowed = options_.window.usec > 0;
  // A packet's interarrival gap references its stream predecessor; it is
  // in scope unless the packet opens the stream (drain mode) or the
  // current window (rolling mode).
  const bool gap_in_hist = windowed ? !window_.empty() : packets_ > 0;
  const std::size_t sbin =
      size_layout_.bin_index(static_cast<double>(p.size));
  std::size_t gbin = 0;
  if (gap_in_hist) {
    gbin = gap_layout_.bin_index(
        static_cast<double>((p.timestamp - prev_ts_).usec));
  }

  std::uint64_t selected = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    if (!lane.sampler->offer(p)) continue;
    selected |= std::uint64_t{1} << i;
    if (lane.spec.target == core::Target::kPacketSize) {
      ++lane.counts[sbin];
    } else if (gap_in_hist) {
      ++lane.counts[gbin];
    }
    if (options_.collect_indices) indices_[i].push_back(packets_);
  }

  ++pop_size_counts_[sbin];
  if (gap_in_hist) ++pop_gap_counts_[gbin];

  if (windowed) {
    // Without periodic ticks nobody else trims the deque; keep the memory
    // bound per-packet instead.
    if (options_.stride.usec <= 0 &&
        p.timestamp.usec > static_cast<std::uint64_t>(options_.window.usec)) {
      evict_to(p.timestamp.usec -
               static_cast<std::uint64_t>(options_.window.usec));
    }
    window_.push_back(Entry{p.timestamp.usec, static_cast<std::uint32_t>(sbin),
                            static_cast<std::uint32_t>(gbin), gap_in_hist,
                            selected});
    window_peak_ = std::max<std::uint64_t>(window_peak_, window_.size());
  }

  prev_ts_ = p.timestamp;
  ++packets_;
}

void ReferenceEngine::emit_ticks(MicroTime now) {
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
    if (snapshot_fn_) snapshot_fn_(ws);
    next_tick_ = next_tick_ + options_.stride;
  }
}

void ReferenceEngine::evict_to(std::uint64_t cutoff_usec) {
  while (!window_.empty() && window_.front().ts < cutoff_usec) {
    const Entry e = window_.front();
    window_.pop_front();
    --pop_size_counts_[e.size_bin];
    if (e.gap_in_hist) --pop_gap_counts_[e.gap_bin];
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if ((e.selected & (std::uint64_t{1} << i)) == 0) continue;
      Lane& lane = lanes_[i];
      if (lane.spec.target == core::Target::kPacketSize) {
        --lane.counts[e.size_bin];
      } else if (e.gap_in_hist) {
        --lane.counts[e.gap_bin];
      }
    }
    // The surviving front just lost its predecessor; its gap leaves scope.
    if (!window_.empty() && window_.front().gap_in_hist) {
      Entry& f = window_.front();
      --pop_gap_counts_[f.gap_bin];
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        if ((f.selected & (std::uint64_t{1} << i)) == 0) continue;
        Lane& lane = lanes_[i];
        if (lane.spec.target == core::Target::kInterarrivalTime) {
          --lane.counts[f.gap_bin];
        }
      }
      f.gap_in_hist = false;
    }
  }
}

WindowScore ReferenceEngine::score(std::uint64_t tick, bool is_final,
                                   MicroTime start, MicroTime end) const {
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
    std::uint64_t pop_total = 0;
    for (const auto c : pop_counts) pop_total += c;
    if (pop_total > 0) {
      std::vector<double> edges(layout.edges().begin(), layout.edges().end());
      const auto population = stats::Histogram::with_counts(edges, pop_counts);
      const auto observed =
          stats::Histogram::with_counts(std::move(edges), lane.counts);
      ls.metrics = core::score_sample(
          observed, population,
          1.0 / static_cast<double>(lane.spec.spec.granularity));
    }
    ws.lanes.push_back(std::move(ls));
  }
  return ws;
}

WindowScore ReferenceEngine::finish() {
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
  return score(/*tick=*/0, /*is_final=*/true, start, prev_ts_);
}

WindowScore ReferenceEngine::current() const {
  if (!started_) return WindowScore{0, false, {}, {}, 0, {}};
  const MicroTime start =
      options_.window.usec > 0 && !window_.empty()
          ? MicroTime{window_.front().ts}
          : first_ts_;
  return score(/*tick=*/0, /*is_final=*/false, start, prev_ts_);
}

}  // namespace netsample::stream::reference
