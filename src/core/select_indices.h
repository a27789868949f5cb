// Index-emitting sampler kernels — layer 2 of the fused sweep engine.
//
// select_indices() answers the same question as driving a streaming Sampler
// over a view with draw_sample_indices() — "which packet positions does
// this spec select?" — but with cost proportional to the *selected* packets
// (the sFlow/RFC 3176 lesson), not the offered ones:
//
//   method             streaming offer() loop     index kernel
//   systematic/count   O(n)                       O(n/k)   strided arithmetic
//   stratified/count   O(n)                       O(n/k)   one RNG draw/bucket
//   simple random      O(n)                       O(n)     Algorithm S, branch-
//                                                          light, early exit
//   systematic/timer   O(n)                       O(s log n)  binary search
//   stratified/timer   O(n)                       O(s log n)  per deadline
//
// Every method is one SelectCursor: a kernel whose loop state (next
// position, bucket, RNG, Algorithm S counts, pending deadline) lives in the
// object, so a pass may be offered in consecutive spans of any length and
// selects exactly what one span over the whole range would. select_indices
// is a cursor begun at the range's first packet and advanced over the whole
// range; stream::Engine advances one cursor per distinct spec chunk by
// chunk. Batch and streaming selection therefore share one implementation
// per method. The fresh whole-range case of stratified/count and simple
// random may instead take the batched SIMD kernels (core/simd/simd.h),
// which replay the same RNG words.
//
// The cursors replay the streaming samplers' RNG call sequences exactly, so
// for every valid SamplerSpec the returned (view-relative, ascending) index
// set is BIT-IDENTICAL to the streaming one — asserted per-method by the
// randomized equivalence suite in tests/test_select_indices.cpp and over
// the full figure grid in tests/test_fastpath.cpp. The streaming hierarchy
// stays as the operational/firmware model and the correctness oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/samplers.h"
#include "core/trace_cache.h"
#include "util/rng.h"

namespace netsample::core {

/// One SamplerSpec's selection, resumable across spans of the packet
/// stream. State per cursor is O(1): no packet is buffered.
class SelectCursor {
 public:
  /// Validates `spec` with make_sampler's rules and messages: throws
  /// std::invalid_argument on an inconsistent spec.
  explicit SelectCursor(const SamplerSpec& spec);

  /// Starts (or restarts) a pass whose first packet arrives at
  /// `start_usec`; the timer grids are anchored there. Positions count
  /// from 0 at that packet.
  void begin(std::uint64_t start_usec);

  /// Offers the pass's next ts.size() packets, whose arrival times are
  /// `ts` (non-decreasing, continuing the pass), and appends the positions
  /// it selects to *out in ascending order. Count methods read only the
  /// span's length.
  void advance(std::span<const std::uint64_t> ts,
               std::vector<std::size_t>* out);

 private:
  Method method_;
  std::uint64_t k_;       // granularity; the timer period for timers
  std::uint64_t pos_{0};  // packets offered in this pass
  // Count methods: the next selected position. Timers: the pending
  // deadline (systematic) or trigger instant (stratified), in usec.
  std::uint64_t next_{0};
  std::uint64_t bucket_{0};    // stratified/count: current bucket's start
  std::uint64_t offset_{0};    // systematic/count offset; timer phase
  std::uint64_t pick_{0};      // simple random: n
  std::uint64_t population_{0};
  std::uint64_t selected_{0};  // simple random: picked so far
  std::uint64_t start_{0};     // timers: grid origin (pass start + phase)
  std::uint64_t consumed_{0};  // timers: expiries used / armed window
  bool queue_{false};          // systematic/timer ExpiryPolicy::kQueue
  std::uint64_t seed_{0};
  Rng rng_;
};

/// Selected positions, relative to `begin`, for `spec` run over the range
/// [begin, end) of the cache's base view — exactly the index set
/// draw_sample_indices(view, *make_sampler(spec)) yields for that view.
/// Throws std::invalid_argument on inconsistent specs (same contract as
/// make_sampler) and std::out_of_range for a range outside the cache.
[[nodiscard]] std::vector<std::size_t> select_indices(
    const SamplerSpec& spec, const BinnedTraceCache& cache, std::size_t begin,
    std::size_t end);

}  // namespace netsample::core
