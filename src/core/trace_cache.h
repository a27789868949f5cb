// Shared, immutable per-trace bin cache — layer 1 of the fused sweep engine.
//
// The paper's experiment grid (5 methods x 2 targets x granularities
// 2..32768 x growing intervals x R replications) re-reads the *same* parent
// population in every cell. A BinnedTraceCache hoists everything that is
// invariant across the grid into structure-of-arrays form, computed once:
//
//   timestamps[i]   arrival time of packet i (raw uint64 microseconds)
//   size_bin[i]     paper packet-size bin id of packet i        (uint8)
//   gap_bin[i]      paper interarrival bin id of the gap between
//                   packet i and its predecessor i-1 (i >= 1)   (uint8)
//
// plus per-bin prefix-sum count tables over both id arrays. With those,
//
//   * the population histogram of ANY contiguous range [begin, end) of the
//     base view costs O(bins) subtractions instead of an O(N) re-bin and a
//     vector<double> materialization, and
//   * a sampled histogram accumulates as counts[bin_id[i]]++ over the
//     selected indices, with no per-value bin search.
//
// The cache is read-only after construction and is shared by all workers of
// a parallel sweep (see docs/PARALLELISM.md). Layer 2, the index-emitting
// sampler kernels that consume it, lives in core/select_indices.h. The
// streaming Sampler hierarchy remains the operational model and the
// correctness oracle (exper::run_cell_reference).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/targets.h"
#include "stats/histogram.h"
#include "trace/trace.h"

namespace netsample::core {

/// Borrowed views over a cache's internal tables, in the exact layout the
/// build constructor produces. Two uses: serializing a built cache into a
/// shard::TraceStore, and adopting tables that already live in read-only
/// shared memory (an mmap'd store) without copying or re-binning.
struct BinnedTables {
  std::span<const double> size_edges, gap_edges;
  std::span<const std::uint64_t> timestamps;
  std::span<const std::uint8_t> size_bins, gap_bins;
  // Bin-major cumulative tables of length bins*(N+1); see the private
  // members below for the exact semantics.
  std::span<const std::uint32_t> size_prefix, gap_prefix;
};

class BinnedTraceCache {
 public:
  /// Builds all arrays in one O(N) pass over `base` (typically a full
  /// trace; every experiment interval is then a sub-range of it).
  explicit BinnedTraceCache(trace::TraceView base);

  /// Adopts prebuilt tables (typically mmap'd from a shard::TraceStore)
  /// without copying or re-binning: the cache only keeps the spans, so
  /// `tables` memory must outlive it. Throws std::invalid_argument when the
  /// table lengths are inconsistent with base.size(). Increments
  /// netsample_trace_cache_maps_total instead of ..._builds_total — worker
  /// processes assert builds == 0 through exactly this distinction.
  BinnedTraceCache(trace::TraceView base, const BinnedTables& tables);

  // The span members may reference the owned vectors, which copying would
  // silently invalidate; moving preserves heap buffers and stays valid.
  BinnedTraceCache(const BinnedTraceCache&) = delete;
  BinnedTraceCache& operator=(const BinnedTraceCache&) = delete;
  BinnedTraceCache(BinnedTraceCache&&) = default;
  BinnedTraceCache& operator=(BinnedTraceCache&&) = default;

  [[nodiscard]] trace::TraceView base() const { return base_; }
  [[nodiscard]] std::size_t size() const { return ts_.size(); }

  /// True when this cache adopted external tables instead of building them.
  [[nodiscard]] bool mapped() const { return mapped_; }

  /// Borrowed views over every internal table — the serialization surface
  /// consumed by shard::write_trace_store. Valid while the cache lives.
  [[nodiscard]] BinnedTables tables() const {
    return BinnedTables{size_edges_, gap_edges_,   ts_,
                        size_bin_,   gap_bin_,     size_prefix_,
                        gap_prefix_};
  }

  /// SoA arrays, indexed by position within base().
  [[nodiscard]] std::span<const std::uint64_t> timestamps() const { return ts_; }
  [[nodiscard]] std::span<const std::uint8_t> size_bins() const { return size_bin_; }
  /// gap_bins()[0] is a placeholder (the first packet has no predecessor).
  [[nodiscard]] std::span<const std::uint8_t> gap_bins() const { return gap_bin_; }

  /// Can `view` be served from this cache? (Same underlying storage.)
  [[nodiscard]] bool contains(trace::TraceView view) const {
    return base_.contains(view);
  }
  /// Offset of `view` within base(); throws std::out_of_range otherwise.
  [[nodiscard]] std::size_t offset_of(trace::TraceView view) const {
    return base_.offset_of(view);
  }

  /// First index in [lo, hi) whose timestamp is >= t, or hi if none. No
  /// kernel calls it since the timer cursors search timestamps() directly.
  [[deprecated(
      "use std::lower_bound over timestamps(); removed in the next release")]]
  [[nodiscard]] std::size_t lower_bound_time(std::uint64_t t, std::size_t lo,
                                             std::size_t hi) const;

  /// Population histogram of the range [begin, end) for `t`, computed from
  /// the prefix-sum tables in O(bins). Bit-identical counts to
  /// bin_values(population_values(view, t), make_target_histogram(t)).
  /// For the interarrival target the range's first packet contributes no
  /// gap, exactly as TraceView::interarrivals() omits it.
  [[nodiscard]] stats::Histogram population_histogram(Target t,
                                                      std::size_t begin,
                                                      std::size_t end) const;

  /// Histogram of a drawn sample given its *view-relative* selected indices
  /// (as returned by select_indices / draw_sample_indices) and the view's
  /// offset within base(). O(sample). For the interarrival target the
  /// view's first packet (relative index 0) contributes nothing, mirroring
  /// sample_values().
  [[nodiscard]] stats::Histogram sample_histogram(
      Target t, std::span<const std::size_t> view_indices,
      std::size_t view_begin) const;

 private:
  trace::TraceView base_;
  bool mapped_{false};
  // Owned storage, populated only by the building constructor; the mapped
  // constructor leaves these empty and points the spans below at caller
  // memory instead. All method bodies go through the spans.
  std::vector<double> size_edges_own_, gap_edges_own_;
  std::vector<std::uint64_t> ts_own_;
  std::vector<std::uint8_t> size_bin_own_, gap_bin_own_;
  std::vector<std::uint32_t> size_prefix_own_, gap_prefix_own_;
  std::span<const double> size_edges_, gap_edges_;
  std::span<const std::uint64_t> ts_;
  std::span<const std::uint8_t> size_bin_, gap_bin_;
  // Bin-major cumulative tables of length bins*(N+1):
  //   size_prefix_[b*(N+1) + i] = #{ j < i : size_bin_[j] == b }
  //   gap_prefix_ [b*(N+1) + i] = #{ 1 <= j < i : gap_bin_[j] == b }
  std::span<const std::uint32_t> size_prefix_, gap_prefix_;
};

}  // namespace netsample::core
