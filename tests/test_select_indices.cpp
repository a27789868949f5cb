// Randomized equivalence suite for the index-emitting kernels: for fuzzed
// SamplerSpecs — all five methods, random granularities (including k > N),
// seeds, offsets, phases, both expiry policies — over ragged sub-views of
// traces with bursts and long idle gaps, core::select_indices and
// core::draw(view, spec) must return EXACTLY the index set the streaming
// samplers produce. The streaming hierarchy is the oracle; any divergence
// is a fast-path bug by definition.
#include "core/select_indices.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/samplers.h"
#include "core/targets.h"
#include "core/trace_cache.h"
#include "util/cancel.h"
#include "util/rng.h"

// make_sampler is deprecated since v1.3: this suite compares the cursor
// against the streaming oracle it builds.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

namespace netsample::core {
namespace {

/// Bursty fuzz traffic: back-to-back packets (zero gaps), typical gaps, and
/// occasional idle periods many timer periods long (the regime where the
/// expiry policies and window coalescing actually differ).
trace::Trace fuzz_trace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<trace::PacketRecord> v;
  v.reserve(n);
  std::uint64_t t = rng.uniform_below(5000);
  for (std::size_t i = 0; i < n; ++i) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{t};
    p.size = static_cast<std::uint16_t>(28 + rng.uniform_below(1473));
    v.push_back(p);
    const std::uint64_t roll = rng.uniform_below(100);
    if (roll < 25) {
      // burst: next packet at the same microsecond
    } else if (roll < 85) {
      t += rng.uniform_below(3000);
    } else if (roll < 96) {
      t += 3000 + rng.uniform_below(20000);
    } else {
      t += 50000 + rng.uniform_below(500000);  // idle gap
    }
  }
  return trace::Trace(std::move(v));
}

trace::TraceView subview(trace::TraceView v, std::size_t b, std::size_t e) {
  return trace::TraceView(v.packets().subspan(b, e - b));
}

SamplerSpec fuzz_spec(Rng& rng, std::size_t view_size) {
  static const Method kMethods[] = {
      Method::kSystematicCount, Method::kStratifiedCount, Method::kSimpleRandom,
      Method::kSystematicTimer, Method::kStratifiedTimer};
  SamplerSpec spec;
  spec.method = kMethods[rng.uniform_below(5)];
  // Granularities from 1 up to ~2N, so k > N (sample rounds to one packet)
  // and k = 1 (select everything) both occur.
  spec.granularity = 1 + rng.uniform_below(2 * static_cast<std::uint64_t>(
                                                   view_size) + 4);
  spec.offset = rng.uniform_below(spec.granularity);
  spec.population = view_size;
  spec.mean_interarrival_usec = 1.0 + 4000.0 * rng.uniform01();
  spec.seed = rng();
  spec.expiry_policy = rng.uniform_below(2) == 0 ? ExpiryPolicy::kCoalesce
                                                 : ExpiryPolicy::kQueue;
  spec.timer_phase_usec = rng();  // reduced modulo the period by both paths
  return spec;
}

std::string describe(const SamplerSpec& spec) {
  return std::string(method_name(spec.method)) +
         " k=" + std::to_string(spec.granularity) +
         " seed=" + std::to_string(spec.seed) +
         " offset=" + std::to_string(spec.offset) +
         " phase=" + std::to_string(spec.timer_phase_usec) +
         " population=" + std::to_string(spec.population) + " policy=" +
         (spec.expiry_policy == ExpiryPolicy::kCoalesce ? "coalesce" : "queue");
}

void expect_kernel_matches_streaming(const SamplerSpec& spec,
                                     const BinnedTraceCache& cache,
                                     std::size_t b, std::size_t e) {
  const auto view = subview(cache.base(), b, e);
  auto sampler = make_sampler(spec);
  const auto expected = draw_sample_indices(view, *sampler);
  const std::string where =
      describe(spec) + " range=[" + std::to_string(b) + "," +
      std::to_string(e) + ")";
  EXPECT_EQ(select_indices(spec, cache, b, e), expected) << where;
  EXPECT_EQ(draw(view, spec).indices, expected) << "draw " << where;
}

TEST(SelectIndices, FuzzedSpecsMatchStreamingSamplersExactly) {
  const auto t = fuzz_trace(2024, 4000);
  const BinnedTraceCache cache(t.view());
  Rng rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    // Ragged interval edges, including prefixes, suffixes and tiny slices.
    std::size_t b = rng.uniform_below(t.size());
    std::size_t e = 1 + rng.uniform_below(t.size());
    if (b >= e) std::swap(b, e);
    if (b == e) e = b + 1;
    const auto spec = fuzz_spec(rng, e - b);
    expect_kernel_matches_streaming(spec, cache, b, e);
  }
}

TEST(SelectIndices, IdleGapHeavyTraceExercisesBothExpiryPolicies) {
  // Mostly idle trace: a few packets separated by many timer periods.
  std::vector<trace::PacketRecord> v;
  const std::uint64_t times[] = {0,      10,      20,      500000,
                                 500001, 2000000, 2000002, 9000000};
  for (auto ts : times) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{ts};
    p.size = 100;
    v.push_back(p);
  }
  const trace::Trace t{std::move(v)};
  const BinnedTraceCache cache(t.view());
  for (auto policy : {ExpiryPolicy::kCoalesce, ExpiryPolicy::kQueue}) {
    for (std::uint64_t k : {1ULL, 2ULL, 5ULL, 100ULL}) {
      SamplerSpec spec;
      spec.method = Method::kSystematicTimer;
      spec.granularity = k;
      spec.mean_interarrival_usec = 700.0;
      spec.expiry_policy = policy;
      expect_kernel_matches_streaming(spec, cache, 0, t.size());
      expect_kernel_matches_streaming(spec, cache, 2, t.size() - 1);
    }
  }
  // Stratified timer on the same idle-gap trace: window coalescing.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 99ULL}) {
    SamplerSpec spec;
    spec.method = Method::kStratifiedTimer;
    spec.granularity = 3;
    spec.mean_interarrival_usec = 700.0;
    spec.seed = seed;
    expect_kernel_matches_streaming(spec, cache, 0, t.size());
  }
}

TEST(SelectIndices, TimerCursorsMatchTheOracleInSpans) {
  // Timer period 200 us (mean interarrival 100 us, k = 2). Deadlines land
  // exactly on the packets at multiples of 200; a run of equal timestamps
  // and a 150-packet burst inside one period put the next selection more
  // than a 64-packet span ahead; an idle gap skips hundreds of periods.
  std::vector<std::uint64_t> times;
  for (std::uint64_t t = 0; t <= 2000; t += 50) times.push_back(t);
  for (int i = 0; i < 30; ++i) times.push_back(2100);
  for (std::uint64_t i = 0; i < 150; ++i) times.push_back(2150 + i / 10);
  times.push_back(2400);
  for (std::uint64_t i = 0; i < 100; ++i) times.push_back(90000 + 7 * i);
  for (std::uint64_t i = 0; i < 80; ++i) {
    times.push_back(91000 + (i / 20) * 200);  // runs of 20 equal stamps
  }
  std::vector<trace::PacketRecord> v;
  for (const auto ts : times) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{ts};
    p.size = 100;
    v.push_back(p);
  }
  const trace::Trace t{std::move(v)};
  const BinnedTraceCache cache(t.view());
  const auto ts = cache.timestamps();
  constexpr std::size_t kSpan = 64;

  auto check = [&](const SamplerSpec& spec) {
    const auto expected = draw_sample_indices(t.view(), *make_sampler(spec));
    SelectCursor cursor(spec);
    cursor.begin(ts.front());
    std::vector<std::size_t> spanned;
    for (std::size_t b = 0; b < ts.size(); b += kSpan) {
      cursor.advance(ts.subspan(b, std::min(kSpan, ts.size() - b)), &spanned);
    }
    EXPECT_EQ(spanned, expected) << "64-packet spans, " << describe(spec);
    EXPECT_EQ(select_indices(spec, cache, 0, t.size()), expected)
        << describe(spec);
  };
  for (const auto policy : {ExpiryPolicy::kCoalesce, ExpiryPolicy::kQueue}) {
    for (std::uint64_t k : {1ULL, 2ULL, 3ULL}) {
      for (std::uint64_t phase : {0ULL, 50ULL}) {
        SamplerSpec spec;
        spec.method = Method::kSystematicTimer;
        spec.granularity = k;
        spec.mean_interarrival_usec = 100.0;
        spec.timer_phase_usec = phase;
        spec.expiry_policy = policy;
        check(spec);
      }
    }
  }
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    SamplerSpec spec;
    spec.method = Method::kStratifiedTimer;
    spec.granularity = 2;
    spec.mean_interarrival_usec = 100.0;
    spec.seed = seed;
    check(spec);
  }
}

TEST(SelectIndices, SimpleRandomCursorMatchesTheOracleInSpans) {
  // Algorithm S resumed at every span boundary: spans of 1, 63 and 64
  // packets cut the scan mid-sample, and a declared population below, equal
  // to and above the view ends the scan at the population, at the sample's
  // completion, or at the view's end with the sample short.
  const auto t = fuzz_trace(77, 700);
  const BinnedTraceCache cache(t.view());
  const auto ts = cache.timestamps();
  const std::size_t n = ts.size();
  for (const std::size_t population : {n - 150, n, n + 150}) {
    for (const std::uint64_t k : {1ULL, 2ULL, 3ULL, 7ULL, 50ULL, 1000ULL}) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        SamplerSpec spec;
        spec.method = Method::kSimpleRandom;
        spec.granularity = k;
        spec.population = population;
        spec.seed = seed;
        const auto expected =
            draw_sample_indices(t.view(), *make_sampler(spec));
        for (const std::size_t span : {1u, 63u, 64u}) {
          SelectCursor cursor(spec);
          cursor.begin(ts.front());
          std::vector<std::size_t> spanned;
          for (std::size_t b = 0; b < n; b += span) {
            cursor.advance(ts.subspan(b, std::min(span, n - b)), &spanned);
          }
          EXPECT_EQ(spanned, expected)
              << span << "-packet spans, " << describe(spec);
        }
        EXPECT_EQ(select_indices(spec, cache, 0, n), expected)
            << describe(spec);
      }
    }
  }
}

TEST(SelectIndices, EmptyIntervalSelectsNothing) {
  const auto t = fuzz_trace(5, 100);
  const BinnedTraceCache cache(t.view());
  for (auto m : {Method::kSystematicCount, Method::kStratifiedCount,
                 Method::kSystematicTimer, Method::kStratifiedTimer}) {
    SamplerSpec spec;
    spec.method = m;
    spec.granularity = 8;
    spec.mean_interarrival_usec = 1000.0;
    EXPECT_TRUE(select_indices(spec, cache, 40, 40).empty()) << method_name(m);
    EXPECT_TRUE(draw(trace::TraceView{}, spec).indices.empty())
        << method_name(m);
  }
  // Simple random over an empty interval: population 0 is invalid on both
  // paths (make_sampler throws the same way).
  SamplerSpec sr;
  sr.method = Method::kSimpleRandom;
  sr.granularity = 8;
  sr.population = 0;
  EXPECT_THROW((void)select_indices(sr, cache, 40, 40), std::invalid_argument);
  EXPECT_THROW((void)draw(trace::TraceView{}, sr), std::invalid_argument);
  EXPECT_THROW((void)make_sampler(sr), std::invalid_argument);
}

TEST(SelectIndices, DrawMatchesStreamingSamplersAcrossPollBlocks) {
  // Views longer than util::kCancelPollStride: the cursor resumes across
  // the blocks draw() feeds it, and must select what one pass would.
  const auto t = fuzz_trace(41, 2 * util::kCancelPollStride + 777);
  const BinnedTraceCache cache(t.view());
  Rng rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t b = rng.uniform_below(t.size() / 4);
    const std::size_t e = t.size() - rng.uniform_below(t.size() / 4);
    SamplerSpec spec = fuzz_spec(rng, e - b);
    spec.granularity = 1 + rng.uniform_below(4096);  // dense in every block
    spec.offset = rng.uniform_below(spec.granularity);
    expect_kernel_matches_streaming(spec, cache, b, e);
  }
  // Simple random with a declared population shorter or longer than the
  // view: packets past it are never offered a draw, on both paths.
  for (std::uint64_t population :
       {1ULL, 100ULL, util::kCancelPollStride + 1ULL, t.size() + 1000ULL}) {
    SamplerSpec spec;
    spec.method = Method::kSimpleRandom;
    spec.granularity = 7;
    spec.population = population;
    spec.seed = population;
    expect_kernel_matches_streaming(spec, cache, 0, t.size());
  }
}

TEST(SelectIndices, DrawThrowsOnAStoppedToken) {
  const auto t = fuzz_trace(53, 100);
  SamplerSpec spec;
  spec.granularity = 4;
  util::CancelToken cancelled;
  cancelled.cancel();
  EXPECT_THROW((void)draw(t.view(), spec, &cancelled), StatusError);
  util::CancelToken expired;
  expired.set_deadline_after(1e-9);
  EXPECT_THROW((void)draw(t.view(), spec, &expired), StatusError);
  util::CancelToken live;
  EXPECT_EQ(draw(t.view(), spec, &live).indices, draw(t.view(), spec).indices);
}

TEST(SelectIndices, SamplerNameMatchesTheOracle) {
  for (auto m : {Method::kSystematicCount, Method::kStratifiedCount,
                 Method::kSimpleRandom, Method::kSystematicTimer,
                 Method::kStratifiedTimer}) {
    for (std::uint64_t k : {1ULL, 50ULL, 4096ULL}) {
      SamplerSpec spec;
      spec.method = m;
      spec.granularity = k;
      spec.population = 49654;
      spec.mean_interarrival_usec = 2417.3;
      EXPECT_EQ(sampler_name(spec), make_sampler(spec)->name())
          << describe(spec);
    }
  }
  SamplerSpec timer;
  timer.method = Method::kSystematicTimer;  // no mean interarrival
  EXPECT_THROW((void)sampler_name(timer), std::invalid_argument);
}

TEST(SelectIndices, GranularityLargerThanPopulation) {
  const auto t = fuzz_trace(11, 50);
  const BinnedTraceCache cache(t.view());
  for (auto m : {Method::kSystematicCount, Method::kStratifiedCount,
                 Method::kSimpleRandom, Method::kSystematicTimer,
                 Method::kStratifiedTimer}) {
    SamplerSpec spec;
    spec.method = m;
    spec.granularity = 1000;  // k >> N
    spec.population = t.size();
    spec.mean_interarrival_usec = 500.0;
    spec.seed = 77;
    expect_kernel_matches_streaming(spec, cache, 0, t.size());
    expect_kernel_matches_streaming(spec, cache, 7, 8);  // one packet
  }
}

TEST(SelectIndices, InvalidSpecsThrowLikeMakeSampler) {
  const auto t = fuzz_trace(3, 20);
  const BinnedTraceCache cache(t.view());
  SamplerSpec spec;

  spec.granularity = 0;
  EXPECT_THROW((void)select_indices(spec, cache, 0, 10), std::invalid_argument);

  spec.granularity = 4;
  spec.offset = 4;  // offset must be < k
  EXPECT_THROW((void)select_indices(spec, cache, 0, 10), std::invalid_argument);

  SamplerSpec timer;
  timer.method = Method::kSystematicTimer;
  timer.granularity = 4;
  timer.mean_interarrival_usec = 0.0;  // no mean interarrival
  EXPECT_THROW((void)select_indices(timer, cache, 0, 10),
               std::invalid_argument);
  // ... even over an empty range, exactly like make_sampler.
  EXPECT_THROW((void)select_indices(timer, cache, 5, 5), std::invalid_argument);
  EXPECT_THROW((void)draw(trace::TraceView{}, timer), std::invalid_argument);

  EXPECT_THROW((void)select_indices(spec, cache, 15, 10), std::out_of_range);
  EXPECT_THROW((void)select_indices(spec, cache, 0, t.size() + 1),
               std::out_of_range);
}

TEST(SelectIndices, SystematicCountIsPureStride) {
  const auto t = fuzz_trace(8, 103);
  const BinnedTraceCache cache(t.view());
  SamplerSpec spec;
  spec.granularity = 10;
  spec.offset = 3;
  const auto idx = select_indices(spec, cache, 0, t.size());
  ASSERT_EQ(idx.size(), 10u);
  for (std::size_t i = 0; i < idx.size(); ++i) EXPECT_EQ(idx[i], 3 + 10 * i);
}

}  // namespace
}  // namespace netsample::core
#pragma GCC diagnostic pop
