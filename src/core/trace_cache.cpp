#include "core/trace_cache.h"

#include <algorithm>
#include <stdexcept>

#include "core/bin_ladders.h"
#include "core/simd/simd.h"
#include "obs/metrics.h"

namespace netsample::core {

BinnedTraceCache::BinnedTraceCache(trace::TraceView base)
    : base_(base),
      size_edges_own_(paper_bin_edges(Target::kPacketSize)),
      gap_edges_own_(paper_bin_edges(Target::kInterarrivalTime)) {
  const std::size_t n = base.size();
  const std::size_t size_bins = size_edges_own_.size() + 1;
  const std::size_t gap_bins = gap_edges_own_.size() + 1;
  // Built before the large arrays so its small vectors sit below them on
  // the heap; above them they pin freed space (+1.1 MiB peak RSS on
  // perfbench's shard_lease under glibc malloc).
  const PaperBinLadders ladders;

  ts_own_.resize(n);
  size_bin_own_.resize(n);
  gap_bin_own_.resize(n);
  {
    // Scoped so the sizes are freed before the prefix tables exist.
    std::vector<std::uint32_t> sizes(n);
    for (std::size_t i = 0; i < n; ++i) {
      ts_own_[i] = base[i].timestamp.usec;
      sizes[i] = base[i].size;
    }
    ladders.classify_sizes(sizes, size_bin_own_.data());
    ladders.classify_gaps(ts_own_, gap_bin_own_.data());
  }

  size_prefix_own_.assign(size_bins * (n + 1), 0);
  for (std::size_t b = 0; b < size_bins; ++b) {
    std::uint32_t* col = size_prefix_own_.data() + b * (n + 1);
    std::uint32_t run = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (size_bin_own_[i] == b) ++run;
      col[i + 1] = run;
    }
  }
  gap_prefix_own_.assign(gap_bins * (n + 1), 0);
  for (std::size_t b = 0; b < gap_bins; ++b) {
    std::uint32_t* col = gap_prefix_own_.data() + b * (n + 1);
    std::uint32_t run = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && gap_bin_own_[i] == b) ++run;
      col[i + 1] = run;
    }
  }

  size_edges_ = size_edges_own_;
  gap_edges_ = gap_edges_own_;
  ts_ = ts_own_;
  size_bin_ = size_bin_own_;
  gap_bin_ = gap_bin_own_;
  size_prefix_ = size_prefix_own_;
  gap_prefix_ = gap_prefix_own_;

  if (obs::enabled()) {
    auto& reg = obs::registry();
    static obs::Counter& builds =
        reg.counter("netsample_trace_cache_builds_total");
    static obs::Counter& packets =
        reg.counter("netsample_trace_cache_packets_binned_total");
    builds.increment();
    packets.add(n);
  }
}

BinnedTraceCache::BinnedTraceCache(trace::TraceView base,
                                   const BinnedTables& tables)
    : base_(base),
      mapped_(true),
      size_edges_(tables.size_edges),
      gap_edges_(tables.gap_edges),
      ts_(tables.timestamps),
      size_bin_(tables.size_bins),
      gap_bin_(tables.gap_bins),
      size_prefix_(tables.size_prefix),
      gap_prefix_(tables.gap_prefix) {
  const std::size_t n = base.size();
  const std::size_t size_bins = size_edges_.size() + 1;
  const std::size_t gap_bins = gap_edges_.size() + 1;
  if (ts_.size() != n || size_bin_.size() != n || gap_bin_.size() != n ||
      size_prefix_.size() != size_bins * (n + 1) ||
      gap_prefix_.size() != gap_bins * (n + 1)) {
    throw std::invalid_argument(
        "BinnedTraceCache: external table lengths inconsistent with base");
  }
  if (obs::enabled()) {
    auto& reg = obs::registry();
    static obs::Counter& maps =
        reg.counter("netsample_trace_cache_maps_total");
    static obs::Counter& packets =
        reg.counter("netsample_trace_cache_packets_mapped_total");
    maps.increment();
    packets.add(n);
  }
}

std::size_t BinnedTraceCache::lower_bound_time(std::uint64_t t, std::size_t lo,
                                               std::size_t hi) const {
  const auto first = ts_.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto last = ts_.begin() + static_cast<std::ptrdiff_t>(hi);
  return static_cast<std::size_t>(std::lower_bound(first, last, t) -
                                  ts_.begin());
}

stats::Histogram BinnedTraceCache::population_histogram(Target t,
                                                        std::size_t begin,
                                                        std::size_t end) const {
  if (begin > end || end > size()) {
    throw std::out_of_range("population_histogram: bad range");
  }
  {
    static obs::Counter& calls = obs::registry().counter(
        "netsample_trace_cache_population_histograms_total");
    calls.increment();
  }
  const std::size_t n1 = size() + 1;
  if (t == Target::kPacketSize) {
    const std::size_t bins = size_edges_.size() + 1;
    std::vector<std::uint64_t> counts(bins, 0);
    for (std::size_t b = 0; b < bins; ++b) {
      const std::uint32_t* col = size_prefix_.data() + b * n1;
      counts[b] = col[end] - col[begin];
    }
    return stats::Histogram::with_counts(
        std::vector<double>(size_edges_.begin(), size_edges_.end()),
        std::move(counts));
  }
  const std::size_t bins = gap_edges_.size() + 1;
  std::vector<std::uint64_t> counts(bins, 0);
  // Gaps live at indices [begin+1, end): the range's first packet has no
  // in-range predecessor.
  if (end > begin + 1) {
    for (std::size_t b = 0; b < bins; ++b) {
      const std::uint32_t* col = gap_prefix_.data() + b * n1;
      counts[b] = col[end] - col[begin + 1];
    }
  }
  return stats::Histogram::with_counts(
      std::vector<double>(gap_edges_.begin(), gap_edges_.end()),
      std::move(counts));
}

stats::Histogram BinnedTraceCache::sample_histogram(
    Target t, std::span<const std::size_t> view_indices,
    std::size_t view_begin) const {
  {
    static obs::Counter& calls = obs::registry().counter(
        "netsample_trace_cache_sample_histograms_total");
    calls.increment();
  }
  const auto& kt = simd::kernels();
  if (t == Target::kPacketSize) {
    std::vector<std::uint64_t> counts(size_edges_.size() + 1, 0);
    if (kt.accumulate_u8 != nullptr) {
      kt.accumulate_u8(size_bin_.data() + view_begin, view_indices.data(),
                       view_indices.size(), /*skip_rel0=*/false, counts.data(),
                       counts.size());
    } else {
      for (const std::size_t rel : view_indices) {
        ++counts[size_bin_[view_begin + rel]];
      }
    }
    return stats::Histogram::with_counts(
        std::vector<double>(size_edges_.begin(), size_edges_.end()),
        std::move(counts));
  }
  std::vector<std::uint64_t> counts(gap_edges_.size() + 1, 0);
  if (kt.accumulate_u8 != nullptr) {
    kt.accumulate_u8(gap_bin_.data() + view_begin, view_indices.data(),
                     view_indices.size(), /*skip_rel0=*/true, counts.data(),
                     counts.size());
  } else {
    for (const std::size_t rel : view_indices) {
      if (rel == 0) continue;  // first packet of the view: no predecessor
      ++counts[gap_bin_[view_begin + rel]];
    }
  }
  return stats::Histogram::with_counts(
      std::vector<double>(gap_edges_.begin(), gap_edges_.end()),
      std::move(counts));
}

}  // namespace netsample::core
