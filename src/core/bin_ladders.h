// The paper bins of both targets as integer compare ladders — the one
// bin classification behind the BinnedTraceCache build and
// stream::Engine's per-chunk classifier. Internal: not re-exported by
// netsample/netsample.h.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace netsample::core {

/// Thresholds from simd::integer_thresholds over paper_bin_edges(). Runs
/// the active SIMD variant's ladders when the variant has them and the
/// scalar ladder otherwise; both equal Histogram::bin_index on every
/// integer input (core/simd/simd.h).
class PaperBinLadders {
 public:
  PaperBinLadders();

  /// out[i] = paper packet-size bin of sizes[i].
  void classify_sizes(std::span<const std::uint32_t> sizes,
                      std::uint8_t* out) const;

  /// out[0] = 0 (no predecessor); out[i] = paper interarrival bin of
  /// ts[i] - ts[i-1]. `ts` must be non-decreasing.
  void classify_gaps(std::span<const std::uint64_t> ts,
                     std::uint8_t* out) const;

 private:
  std::vector<std::uint32_t> size_thresholds_;
  std::vector<std::uint64_t> gap_thresholds_;
};

}  // namespace netsample::core
