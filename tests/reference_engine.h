// The per-packet stream::Engine as it stood before the engine moved onto
// the index kernels, kept verbatim (less its obs:: instruments) as a
// test-only oracle: one core::Sampler per lane, one virtual offer() and two
// Histogram::bin_index calls per packet. tests/test_stream_engine.cpp
// compares stream::Engine against it byte for byte. It shares the public
// vocabulary (LaneSpec, EngineOptions, WindowScore) with stream::Engine and
// is not built into any library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/sampler.h"
#include "core/samplers.h"
#include "stats/histogram.h"
#include "stream/engine.h"
#include "trace/packet_record.h"
#include "util/timeval.h"

namespace netsample::stream::reference {

class ReferenceEngine {
 public:
  using SnapshotFn = std::function<void(const WindowScore&)>;

  /// Builds every lane's sampler up front; throws std::invalid_argument on
  /// an inconsistent spec, more than kMaxLanes lanes, or negative
  /// window/stride.
  explicit ReferenceEngine(std::vector<LaneSpec> lanes,
                           EngineOptions options = {});

  /// Called with each periodic snapshot, from inside feed(), in tick order.
  void on_snapshot(SnapshotFn fn) { snapshot_fn_ = std::move(fn); }

  /// Ingest the next packets of the stream, in arrival order. Chunk size is
  /// arbitrary and does not affect any output. Emits pending snapshots as
  /// ticks are crossed. Throws util::StatusError when the cancel token
  /// fires and std::invalid_argument on a time-ordering violation.
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

  /// Lane-selection bitmasks cap the lane count (one bit per lane).
  static constexpr std::size_t kMaxLanes = 64;

 private:
  struct Lane {
    LaneSpec spec;
    std::unique_ptr<core::Sampler> sampler;
    std::vector<std::uint64_t> counts;  // sample histogram for spec.target
  };

  // Rolling-window bookkeeping: per-packet bin ids, not packets.
  struct Entry {
    std::uint64_t ts{0};
    std::uint32_t size_bin{0};
    std::uint32_t gap_bin{0};
    bool gap_in_hist{false};  // its gap is currently counted
    std::uint64_t selected{0};  // lane bitmask
  };

  void ingest(const trace::PacketRecord& p);
  void emit_ticks(MicroTime now);
  void evict_to(std::uint64_t cutoff_usec);
  [[nodiscard]] WindowScore score(std::uint64_t tick, bool is_final,
                                  MicroTime start, MicroTime end) const;

  EngineOptions options_;
  std::vector<Lane> lanes_;
  std::vector<std::vector<std::size_t>> indices_;

  stats::Histogram size_layout_;
  stats::Histogram gap_layout_;
  std::vector<std::uint64_t> pop_size_counts_;
  std::vector<std::uint64_t> pop_gap_counts_;

  std::deque<Entry> window_;
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

}  // namespace netsample::stream::reference
