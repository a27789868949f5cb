// Tests for the shared per-packet bin cache (core/trace_cache.h): bin ids
// agree with Histogram::bin_index, prefix-sum population histograms agree
// with the streaming re-binning over arbitrary sub-ranges, sub-view plumbing
// (contains / offset_of), and sampled-histogram accumulation.
#include "core/trace_cache.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/targets.h"
#include "stats/histogram.h"
#include "synth/presets.h"
#include "util/rng.h"

namespace netsample::core {
namespace {

trace::Trace bursty_trace() {
  // A couple of synthetic minutes: bursts, idle gaps, the full size mix.
  static const trace::Trace t =
      synth::TraceModel(synth::sdsc_minutes_config(2.0, 23)).generate();
  return trace::Trace(t);  // copy; tests may outlive the static's first use
}

const trace::Trace& shared_trace() {
  static const trace::Trace t = bursty_trace();
  return t;
}

trace::TraceView subview(trace::TraceView v, std::size_t b, std::size_t e) {
  return trace::TraceView(v.packets().subspan(b, e - b));
}

void expect_same_counts(const stats::Histogram& got,
                        const stats::Histogram& want, const char* what) {
  ASSERT_EQ(got.bin_count(), want.bin_count()) << what;
  for (std::size_t b = 0; b < want.bin_count(); ++b) {
    EXPECT_EQ(got.count(b), want.count(b)) << what << " bin " << b;
  }
  EXPECT_EQ(got.total(), want.total()) << what;
}

TEST(BinnedTraceCache, BinIdsMatchHistogramBinIndex) {
  const auto view = shared_trace().view();
  const BinnedTraceCache cache(view);
  ASSERT_EQ(cache.size(), view.size());
  const auto size_layout = make_target_histogram(Target::kPacketSize);
  const auto gap_layout = make_target_histogram(Target::kInterarrivalTime);
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(cache.size_bins()[i],
              size_layout.bin_index(static_cast<double>(view[i].size)))
        << "packet " << i;
    EXPECT_EQ(cache.timestamps()[i], view[i].timestamp.usec) << "packet " << i;
    if (i > 0) {
      const double gap = static_cast<double>(
          (view[i].timestamp - view[i - 1].timestamp).usec);
      EXPECT_EQ(cache.gap_bins()[i], gap_layout.bin_index(gap)) << "gap " << i;
    }
  }
}

TEST(BinnedTraceCache, PopulationHistogramMatchesLegacyBinningOnRandomRanges) {
  const auto view = shared_trace().view();
  const BinnedTraceCache cache(view);
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t b = rng.uniform_below(view.size());
    std::size_t e = rng.uniform_below(view.size() + 1);
    if (b > e) std::swap(b, e);
    const auto sub = subview(view, b, e);
    for (auto t : {Target::kPacketSize, Target::kInterarrivalTime}) {
      const auto fast = cache.population_histogram(t, b, e);
      const auto legacy = bin_values(population_values(sub, t),
                                     make_target_histogram(t));
      expect_same_counts(fast, legacy, target_name(t));
    }
  }
}

TEST(BinnedTraceCache, PopulationHistogramEdgeRanges) {
  const auto view = shared_trace().view();
  const BinnedTraceCache cache(view);
  for (auto t : {Target::kPacketSize, Target::kInterarrivalTime}) {
    // Empty range: all-zero counts with the paper layout.
    const auto empty = cache.population_histogram(t, 5, 5);
    EXPECT_EQ(empty.total(), 0u);
    EXPECT_EQ(empty.bin_count(), make_target_histogram(t).bin_count());
    // Single packet: one size value, no gaps.
    const auto one = cache.population_histogram(t, 7, 8);
    EXPECT_EQ(one.total(), t == Target::kPacketSize ? 1u : 0u);
  }
  EXPECT_THROW((void)cache.population_histogram(Target::kPacketSize, 3, 2),
               std::out_of_range);
  EXPECT_THROW((void)cache.population_histogram(Target::kPacketSize, 0,
                                                cache.size() + 1),
               std::out_of_range);
}

TEST(BinnedTraceCache, SampleHistogramMatchesLegacySampleBinning) {
  const auto view = shared_trace().view();
  const BinnedTraceCache cache(view);
  const std::size_t b = 100, e = view.size() - 50;
  const auto sub = subview(view, b, e);
  // A sample that includes relative index 0 (no predecessor gap).
  std::vector<std::size_t> indices = {0, 1, 17, 40, 41, sub.size() - 1};
  const Sample s{sub, indices};
  for (auto t : {Target::kPacketSize, Target::kInterarrivalTime}) {
    const auto fast = cache.sample_histogram(t, indices, b);
    const auto legacy =
        bin_values(sample_values(s, t), make_target_histogram(t));
    expect_same_counts(fast, legacy, target_name(t));
  }
}

TEST(BinnedTraceCache, ContainsAndOffsetOf) {
  const auto view = shared_trace().view();
  const BinnedTraceCache cache(view);
  const auto sub = subview(view, 10, 200);
  EXPECT_TRUE(cache.contains(view));
  EXPECT_TRUE(cache.contains(sub));
  EXPECT_EQ(cache.offset_of(view), 0u);
  EXPECT_EQ(cache.offset_of(sub), 10u);

  // A view over different storage is not contained.
  const auto other = bursty_trace();
  EXPECT_FALSE(cache.contains(other.view()));
  EXPECT_THROW((void)cache.offset_of(other.view()), std::out_of_range);
  EXPECT_FALSE(cache.contains(trace::TraceView{}));
}

TEST(HistogramWithCounts, BuildsAndValidates) {
  const std::vector<double> edges = {10.0, 20.0};
  const auto h = stats::Histogram::with_counts(edges, {3, 4, 5});
  EXPECT_EQ(h.bin_count(), 3u);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.count(2), 5u);
  EXPECT_EQ(h.total(), 12u);
  EXPECT_THROW((void)stats::Histogram::with_counts(edges, {1, 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace netsample::core
