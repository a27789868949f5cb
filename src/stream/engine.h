// The bounded-memory online scoring engine (docs/STREAMING.md).
//
// An Engine owns a set of *lanes* — one sampling discipline and histogram
// target each, from the same core::SamplerSpec vocabulary as the batch
// runner — plus rolling population and sample histograms over the paper's
// size / interarrival bins. Packets are fed chunk-by-chunk in arrival order;
// at any instant the windowed φ disparity of every lane against the rolling
// population is available without a full-trace cache.
//
// Two operating shapes:
//
//   drain mode (window == 0): histograms accumulate over the whole stream;
//     finish() scores exactly what exper::run_cell scores on the same
//     interval — bit-identical at any chunk size, pinned by
//     tests/test_stream_engine.cpp against the BinnedTraceCache fast path.
//     With a stride armed, periodic snapshots score the growing prefix,
//     which is the one-pass form of the fig10/fig11 interval sweeps.
//
//   rolling window (window > 0): a deque of per-packet bin ids (not
//     packets) keeps the histograms scoped to the trailing window; memory
//     is O(window + stride), never O(trace). `netsample watch` runs this.
//
// Each chunk is classified once (core::PaperBinLadders, the cache build's
// ladders), then cut into runs at snapshot ticks and cancel polls. Every
// run is offered to one core::SelectCursor per distinct SamplerSpec — the
// same cursor core::select_indices runs — and lanes with equal specs (the
// two targets of one replication) share that cursor and its selections.
//
// Determinism contract: for a fixed lane configuration and input stream the
// outputs (φ values, selected indices, snapshot rows) are byte-identical
// regardless of how the stream is chunked. A tick fires before the packet
// that crosses it is ingested, wherever the chunk boundaries fall.
//
// Interarrival semantics follow core/targets.h: a packet contributes the
// gap to its immediate predecessor in the arrival stream; the first packet
// of the stream — and, in windowed mode, the first packet of the current
// window — has no in-scope predecessor and contributes nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/samplers.h"
#include "core/targets.h"
#include "exper/runner.h"
#include "stats/histogram.h"
#include "trace/packet_record.h"
#include "util/cancel.h"
#include "util/timeval.h"

namespace netsample::stream {

/// One online scoring lane: a sampler discipline plus the target its sample
/// histogram is scored on.
struct LaneSpec {
  core::SamplerSpec spec;
  core::Target target{core::Target::kPacketSize};
  std::string label;
};

/// The batch runner's replication ladder as lanes: replication_spec(config, r)
/// for r in [0, config.replications), labelled "r0", "r1", ... Feeding the
/// engine the cell's interval and score()-ing in drain mode reproduces
/// run_cell bit-for-bit. `population_override` (when nonzero) substitutes
/// for config.interval.size() in the spec — the operational knob for simple
/// random sampling on a live stream, where N comes from the previous
/// collection cycle rather than a materialized trace.
[[nodiscard]] std::vector<LaneSpec> lanes_for_cell(
    const exper::CellConfig& config, std::uint64_t population_override = 0);

struct EngineOptions {
  /// Rolling-window length; 0 = drain mode (score the whole stream so far).
  MicroDuration window{0};
  /// Snapshot period; 0 = no periodic snapshots (score only at finish()).
  MicroDuration stride{0};
  /// Record every lane's selected packet indices (stream positions). Costs
  /// O(sample) memory — for tests and small runs, not production watches.
  bool collect_indices{false};
  /// Polled every util::kCancelPollStride packets inside feed(); unwinds
  /// with util::StatusError. Not owned.
  const util::CancelToken* cancel{nullptr};
};

/// One lane's disparity against the rolling population.
struct LaneScore {
  std::string label;
  core::Target target{core::Target::kPacketSize};
  std::uint64_t granularity{0};
  core::DisparityMetrics metrics;
};

/// A scored window. Periodic snapshots cover the half-open [start, end);
/// the finish() score covers [start, end] including the last packet.
struct WindowScore {
  /// 1-based snapshot index; 0 for the finish() score.
  std::uint64_t tick{0};
  bool is_final{false};
  MicroTime window_start{};
  MicroTime window_end{};
  /// Stream packets ingested up to this score (not just in-window).
  std::uint64_t packets_seen{0};
  std::vector<LaneScore> lanes;
};

class Engine {
 public:
  using SnapshotFn = std::function<void(const WindowScore&)>;

  /// Builds every lane's selection cursor up front; throws
  /// std::invalid_argument on an inconsistent spec, more than kMaxLanes
  /// lanes, or negative window/stride.
  explicit Engine(std::vector<LaneSpec> lanes, EngineOptions options = {});
  ~Engine();
  Engine(Engine&&);
  Engine& operator=(Engine&&);

  /// Called with each periodic snapshot, from inside feed(), in tick order.
  void on_snapshot(SnapshotFn fn) { snapshot_fn_ = std::move(fn); }

  /// Ingest the next packets of the stream, in arrival order. Chunk size is
  /// arbitrary and does not affect any output. Emits pending snapshots as
  /// ticks are crossed. Throws util::StatusError when the cancel token
  /// fires and std::invalid_argument on a time-ordering violation; the
  /// order is checked before any packet of the chunk is ingested, so a
  /// rejected chunk leaves the engine unchanged.
  void feed(std::span<const trace::PacketRecord> chunk);

  /// Score the final (partial) window — the whole stream in drain mode —
  /// and return it. feed() must not be called afterwards.
  [[nodiscard]] WindowScore finish();

  /// Score the current rolling window without consuming anything ("windowed
  /// φ at any instant").
  [[nodiscard]] WindowScore current() const;

  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  /// High-water count of packets held for the rolling window (0 in drain
  /// mode, which holds none). The O(window) memory assertion reads this.
  [[nodiscard]] std::uint64_t window_packets_peak() const { return window_peak_; }
  /// Selected stream positions per lane (collect_indices mode only).
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& lane_indices() const {
    return indices_;
  }
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }

  /// Cap on the lane count, which session specs validate against.
  static constexpr std::size_t kMaxLanes = 64;

 private:
  // One selection cursor per distinct SamplerSpec, shared by the lanes
  // with that spec (engine.cpp; the cursor type is internal to core).
  struct Selector;
  struct Lane {
    LaneSpec spec;
    std::size_t selector{0};
  };

  // Rolling-window bookkeeping: per-packet bin ids, not packets.
  struct Entry {
    std::uint64_t ts{0};
    std::uint8_t size_bin{0};
    std::uint8_t gap_bin{0};
    bool gap_in_hist{false};  // its gap is currently counted
  };

  void start_stream(std::uint64_t ts);
  void ingest(std::size_t begin, std::size_t end);
  void emit_ticks(MicroTime now);
  void evict_to(std::uint64_t cutoff_usec);
  [[nodiscard]] WindowScore score(std::uint64_t tick, bool is_final,
                                  MicroTime start, MicroTime end) const;

  EngineOptions options_;
  std::vector<Lane> lanes_;
  std::vector<Selector> selectors_;
  std::vector<std::vector<std::size_t>> indices_;

  stats::Histogram size_layout_;
  stats::Histogram gap_layout_;
  std::vector<std::uint64_t> pop_size_counts_;
  std::vector<std::uint64_t> pop_gap_counts_;

  // The chunk being fed: ts_[0] is its predecessor's arrival time and
  // ts_[i + 1] packet i's; gap_bins_ follows the same offset.
  std::vector<std::uint64_t> ts_;
  std::vector<std::uint32_t> sizes_;
  std::vector<std::uint8_t> size_bins_;
  std::vector<std::uint8_t> gap_bins_;
  std::vector<std::size_t> run_picks_;

  std::deque<Entry> window_;
  std::uint64_t window_base_{0};  // stream position of window_.front()
  bool started_{false};
  bool finished_{false};
  MicroTime first_ts_{};
  MicroTime prev_ts_{};
  MicroTime next_tick_{};
  std::uint64_t tick_index_{0};
  std::uint64_t packets_{0};
  std::uint64_t window_peak_{0};
  SnapshotFn snapshot_fn_;
};

}  // namespace netsample::stream
