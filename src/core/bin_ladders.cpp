#include "core/bin_ladders.h"

#include <stdexcept>
#include <utility>

#include "core/simd/simd.h"
#include "core/targets.h"

namespace netsample::core {

PaperBinLadders::PaperBinLadders() {
  auto size_thr =
      simd::integer_thresholds_u32(paper_bin_edges(Target::kPacketSize));
  auto gap_thr =
      simd::integer_thresholds(paper_bin_edges(Target::kInterarrivalTime));
  if (!size_thr.has_value() || !gap_thr.has_value() ||
      size_thr->size() > simd::kMaxThresholds ||
      gap_thr->size() > simd::kMaxThresholds) {
    throw std::logic_error("paper bin edges have no integer ladder");
  }
  size_thresholds_ = std::move(*size_thr);
  gap_thresholds_ = std::move(*gap_thr);
}

void PaperBinLadders::classify_sizes(std::span<const std::uint32_t> sizes,
                                     std::uint8_t* out) const {
  if (const auto& kt = simd::kernels(); kt.classify_u32 != nullptr) {
    kt.classify_u32(sizes.data(), sizes.size(), size_thresholds_.data(),
                    size_thresholds_.size(), out);
    return;
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    unsigned b = 0;
    for (const std::uint32_t t : size_thresholds_) b += sizes[i] >= t ? 1u : 0u;
    out[i] = static_cast<std::uint8_t>(b);
  }
}

void PaperBinLadders::classify_gaps(std::span<const std::uint64_t> ts,
                                    std::uint8_t* out) const {
  if (const auto& kt = simd::kernels(); kt.classify_gaps_u64 != nullptr) {
    kt.classify_gaps_u64(ts.data(), ts.size(), gap_thresholds_.data(),
                         gap_thresholds_.size(), out);
    return;
  }
  if (ts.empty()) return;
  out[0] = 0;
  for (std::size_t i = 1; i < ts.size(); ++i) {
    const std::uint64_t gap = ts[i] - ts[i - 1];
    unsigned b = 0;
    for (const std::uint64_t t : gap_thresholds_) b += gap >= t ? 1u : 0u;
    out[i] = static_cast<std::uint8_t>(b);
  }
}

}  // namespace netsample::core
