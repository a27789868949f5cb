#include "core/samplers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "core/targets.h"

// The five paper classes and make_sampler are deprecated since v1.3; this
// suite pins the oracle's own contract until it moves to a test-only target.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

namespace netsample::core {
namespace {

trace::Trace uniform_trace(std::size_t n, std::uint64_t gap_usec = 1000) {
  std::vector<trace::PacketRecord> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{i * gap_usec};
    p.size = static_cast<std::uint16_t>(40 + (i % 3) * 256);
    v.push_back(p);
  }
  return trace::Trace(std::move(v));
}

// --------------------------------------------------------------------------
// Systematic / count

TEST(SystematicCount, SelectsEveryKth) {
  auto t = uniform_trace(100);
  SystematicCountSampler s(10);
  const auto idx = draw_sample_indices(t.view(), s);
  ASSERT_EQ(idx.size(), 10u);
  for (std::size_t i = 0; i < idx.size(); ++i) EXPECT_EQ(idx[i], i * 10);
}

TEST(SystematicCount, OffsetShiftsSelection) {
  auto t = uniform_trace(100);
  SystematicCountSampler s(10, 3);
  const auto idx = draw_sample_indices(t.view(), s);
  ASSERT_EQ(idx.size(), 10u);
  EXPECT_EQ(idx[0], 3u);
  EXPECT_EQ(idx[9], 93u);
}

TEST(SystematicCount, KOneSelectsEverything) {
  auto t = uniform_trace(25);
  SystematicCountSampler s(1);
  EXPECT_EQ(draw_sample_indices(t.view(), s).size(), 25u);
}

TEST(SystematicCount, BeginResetsPosition) {
  auto t = uniform_trace(20);
  SystematicCountSampler s(7);
  const auto first = draw_sample_indices(t.view(), s);
  const auto second = draw_sample_indices(t.view(), s);
  EXPECT_EQ(first, second);
}

TEST(SystematicCount, InvalidParamsThrow) {
  EXPECT_THROW(SystematicCountSampler(0), std::invalid_argument);
  EXPECT_THROW(SystematicCountSampler(5, 5), std::invalid_argument);
  EXPECT_THROW(SystematicCountSampler(5, 9), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Stratified / count

TEST(StratifiedCount, OnePerBucket) {
  auto t = uniform_trace(1000);
  StratifiedCountSampler s(10, Rng(42));
  const auto idx = draw_sample_indices(t.view(), s);
  ASSERT_EQ(idx.size(), 100u);
  for (std::size_t b = 0; b < 100; ++b) {
    EXPECT_GE(idx[b], b * 10);
    EXPECT_LT(idx[b], (b + 1) * 10);
  }
}

TEST(StratifiedCount, PositionsVaryWithinBuckets) {
  auto t = uniform_trace(1000);
  StratifiedCountSampler s(10, Rng(42));
  const auto idx = draw_sample_indices(t.view(), s);
  std::set<std::uint64_t> offsets;
  for (std::size_t b = 0; b < idx.size(); ++b) offsets.insert(idx[b] % 10);
  EXPECT_GT(offsets.size(), 3u);  // truly random within buckets
}

TEST(StratifiedCount, PassesAreReplayable) {
  auto t = uniform_trace(200);
  StratifiedCountSampler s(8, Rng(7));
  EXPECT_EQ(draw_sample_indices(t.view(), s), draw_sample_indices(t.view(), s));
}

TEST(StratifiedCount, DifferentSeedsDiffer) {
  auto t = uniform_trace(500);
  StratifiedCountSampler a(10, Rng(1));
  StratifiedCountSampler b(10, Rng(2));
  EXPECT_NE(draw_sample_indices(t.view(), a), draw_sample_indices(t.view(), b));
}

TEST(StratifiedCount, InvalidKThrows) {
  EXPECT_THROW(StratifiedCountSampler(0, Rng(1)), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Simple random

TEST(SimpleRandom, ExactSampleSize) {
  auto t = uniform_trace(1000);
  SimpleRandomSampler s(100, 1000, Rng(3));
  EXPECT_EQ(draw_sample_indices(t.view(), s).size(), 100u);
}

TEST(SimpleRandom, SelectsAllWhenNEqualsPopulation) {
  auto t = uniform_trace(50);
  SimpleRandomSampler s(50, 50, Rng(3));
  EXPECT_EQ(draw_sample_indices(t.view(), s).size(), 50u);
}

TEST(SimpleRandom, UniformInclusionProbability) {
  // Each position should be included ~ n/N of the time across many passes.
  auto t = uniform_trace(60);
  std::vector<int> hits(60, 0);
  const int passes = 3000;
  for (int p = 0; p < passes; ++p) {
    SimpleRandomSampler s(15, 60, Rng(static_cast<std::uint64_t>(p) + 1));
    for (auto i : draw_sample_indices(t.view(), s)) ++hits[i];
  }
  for (int h : hits) {
    EXPECT_NEAR(h / static_cast<double>(passes), 0.25, 0.05);
  }
}

TEST(SimpleRandom, ExcessPopulationDeclarationYieldsFewer) {
  // If the declared population exceeds the actual stream, the sample is
  // smaller but never larger than n.
  auto t = uniform_trace(100);
  SimpleRandomSampler s(50, 200, Rng(3));
  const auto idx = draw_sample_indices(t.view(), s);
  EXPECT_LE(idx.size(), 50u);
  EXPECT_GT(idx.size(), 10u);
}

TEST(SimpleRandom, StreamLongerThanPopulationNeverOverselects) {
  auto t = uniform_trace(100);
  SimpleRandomSampler s(20, 50, Rng(3));
  const auto idx = draw_sample_indices(t.view(), s);
  EXPECT_EQ(idx.size(), 20u);
  for (auto i : idx) EXPECT_LT(i, 50u);
}

TEST(SimpleRandom, NGreaterThanPopulationThrows) {
  EXPECT_THROW(SimpleRandomSampler(10, 5, Rng(1)), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Scheduled stratified (variable bucket sizes)

TEST(ScheduledStratified, SingleEntryMatchesConstantBuckets) {
  auto t = uniform_trace(1000);
  ScheduledStratifiedSampler a({10}, Rng(42));
  StratifiedCountSampler b(10, Rng(42));
  EXPECT_EQ(draw_sample_indices(t.view(), a), draw_sample_indices(t.view(), b));
}

TEST(ScheduledStratified, OnePerBucketAcrossMixedSizes) {
  auto t = uniform_trace(600);
  ScheduledStratifiedSampler s({5, 15, 40}, Rng(1));  // cycle of 60 packets
  const auto idx = draw_sample_indices(t.view(), s);
  ASSERT_EQ(idx.size(), 30u);  // 10 cycles x 3 buckets
  // Check each selection falls inside its bucket.
  std::size_t start = 0;
  std::size_t pick = 0;
  const std::uint64_t sizes[] = {5, 15, 40};
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (auto bs : sizes) {
      ASSERT_LT(pick, idx.size());
      EXPECT_GE(idx[pick], start);
      EXPECT_LT(idx[pick], start + bs);
      start += bs;
      ++pick;
    }
  }
}

TEST(ScheduledStratified, MeanFraction) {
  ScheduledStratifiedSampler s({5, 15, 40}, Rng(1));
  EXPECT_NEAR(s.mean_fraction(), 3.0 / 60.0, 1e-12);
}

TEST(ScheduledStratified, AchievedFractionMatchesMean) {
  auto t = uniform_trace(60000);
  ScheduledStratifiedSampler s({20, 80}, Rng(3));
  const auto idx = draw_sample_indices(t.view(), s);
  EXPECT_NEAR(static_cast<double>(idx.size()) / 60000.0, 2.0 / 100.0, 0.001);
}

TEST(ScheduledStratified, Validation) {
  EXPECT_THROW(ScheduledStratifiedSampler({}, Rng(1)), std::invalid_argument);
  EXPECT_THROW(ScheduledStratifiedSampler({5, 0, 3}, Rng(1)),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Bernoulli (geometric skip)

TEST(Bernoulli, AchievedFractionMatchesProbability) {
  auto t = uniform_trace(100000);
  BernoulliSampler s(0.02, Rng(5));
  const auto idx = draw_sample_indices(t.view(), s);
  // Binomial(100000, 0.02): mean 2000, sd ~44. Allow 5 sigma.
  EXPECT_NEAR(static_cast<double>(idx.size()), 2000.0, 220.0);
}

TEST(Bernoulli, ProbabilityOneSelectsAll) {
  auto t = uniform_trace(100);
  BernoulliSampler s(1.0, Rng(5));
  EXPECT_EQ(draw_sample_indices(t.view(), s).size(), 100u);
}

TEST(Bernoulli, SkipsAreGeometric) {
  // Memorylessness: the gaps between selections should have mean ~1/p and
  // sd ~ mean (geometric distribution).
  auto t = uniform_trace(200000);
  BernoulliSampler s(0.01, Rng(7));
  const auto idx = draw_sample_indices(t.view(), s);
  ASSERT_GT(idx.size(), 500u);
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 1; i < idx.size(); ++i) {
    const double gap = static_cast<double>(idx[i] - idx[i - 1]);
    sum += gap;
    sum2 += gap * gap;
  }
  const double n = static_cast<double>(idx.size() - 1);
  const double mean = sum / n;
  const double sd = std::sqrt(sum2 / n - mean * mean);
  EXPECT_NEAR(mean, 100.0, 10.0);
  EXPECT_NEAR(sd, 100.0, 15.0);
}

TEST(Bernoulli, Replayable) {
  auto t = uniform_trace(5000);
  BernoulliSampler s(0.05, Rng(11));
  EXPECT_EQ(draw_sample_indices(t.view(), s), draw_sample_indices(t.view(), s));
}

TEST(Bernoulli, Validation) {
  EXPECT_THROW(BernoulliSampler(0.0, Rng(1)), std::invalid_argument);
  EXPECT_THROW(BernoulliSampler(-0.1, Rng(1)), std::invalid_argument);
  EXPECT_THROW(BernoulliSampler(1.5, Rng(1)), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Systematic / timer

TEST(SystematicTimer, SelectsFirstPacketAfterEachExpiry) {
  // Packets every 1000us; timer every 3500us selects packets just after
  // 3500, 7000, 10500, ... i.e. indices 4, 7, 11, 14, ...
  auto t = uniform_trace(20, 1000);
  SystematicTimerSampler s(MicroDuration{3500});
  const auto idx = draw_sample_indices(t.view(), s);
  ASSERT_GE(idx.size(), 4u);
  EXPECT_EQ(idx[0], 4u);   // t=4000 >= 3500
  EXPECT_EQ(idx[1], 7u);   // t=7000 >= 7000
  EXPECT_EQ(idx[2], 11u);  // t=11000 >= 10500
  EXPECT_EQ(idx[3], 14u);  // t=14000 >= 14000
}

TEST(SystematicTimer, CoalescePolicySelectsOncePerGap) {
  // One long idle gap spanning many expiries must yield a single selection.
  std::vector<trace::PacketRecord> v;
  for (std::uint64_t us : {0ULL, 1000ULL, 100000ULL, 101000ULL}) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{us};
    v.push_back(p);
  }
  trace::Trace t(std::move(v));
  SystematicTimerSampler s(MicroDuration{500}, ExpiryPolicy::kCoalesce);
  const auto idx = draw_sample_indices(t.view(), s);
  // idx 1 (first expiry), idx 2 (one selection for the ~197 missed expiries),
  // idx 3 (next expiry after 100000).
  EXPECT_EQ(idx, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(SystematicTimer, QueuePolicyDrainsBackToBack) {
  std::vector<trace::PacketRecord> v;
  for (std::uint64_t us : {0ULL, 10000ULL, 10100ULL, 10200ULL, 10300ULL}) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{us};
    v.push_back(p);
  }
  trace::Trace t(std::move(v));
  SystematicTimerSampler s(MicroDuration{2000}, ExpiryPolicy::kQueue);
  const auto idx = draw_sample_indices(t.view(), s);
  // Five expiries passed by t=10000 (2000,4000,...,10000): all four packets
  // after the gap are selected while the queue drains.
  EXPECT_EQ(idx, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(SystematicTimer, PhaseShiftsGrid) {
  auto t = uniform_trace(20, 1000);
  SystematicTimerSampler a(MicroDuration{3000});
  SystematicTimerSampler b(MicroDuration{3000}, ExpiryPolicy::kCoalesce,
                           MicroDuration{1500});
  const auto ia = draw_sample_indices(t.view(), a);
  const auto ib = draw_sample_indices(t.view(), b);
  ASSERT_FALSE(ia.empty());
  ASSERT_FALSE(ib.empty());
  EXPECT_NE(ia, ib);
}

TEST(SystematicTimer, InvalidParamsThrow) {
  EXPECT_THROW(SystematicTimerSampler(MicroDuration{0}), std::invalid_argument);
  EXPECT_THROW(SystematicTimerSampler(MicroDuration{-10}), std::invalid_argument);
  EXPECT_THROW(SystematicTimerSampler(MicroDuration{10}, ExpiryPolicy::kCoalesce,
                                      MicroDuration{10}),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Stratified / timer

TEST(StratifiedTimer, SamplingFractionRoughlyMatches) {
  auto t = uniform_trace(10000, 1000);  // 10s of packets at 1000pps
  StratifiedTimerSampler s(MicroDuration{10000}, Rng(5));
  const auto idx = draw_sample_indices(t.view(), s);
  // ~1 selection per 10ms window over ~1000 windows, minus the windows
  // skipped when a trigger near a window's end selects a packet in the next
  // window (the paper's "necessary approximation" costs ~10% here because
  // the mean gap is 1/10 of the window).
  EXPECT_GT(idx.size(), 850u);
  EXPECT_LE(idx.size(), 1000u);
}

TEST(StratifiedTimer, AtMostOneSelectionPerWindow) {
  auto t = uniform_trace(10000, 1000);
  StratifiedTimerSampler s(MicroDuration{10000}, Rng(6));
  const auto sample = draw(t.view(), s);
  std::map<std::uint64_t, int> per_window;
  for (auto i : sample.indices) {
    ++per_window[t[i].timestamp.usec / 10000];
  }
  for (const auto& [w, c] : per_window) {
    (void)w;
    EXPECT_LE(c, 1);
  }
}

TEST(StratifiedTimer, Replayable) {
  auto t = uniform_trace(500, 997);
  StratifiedTimerSampler s(MicroDuration{5000}, Rng(8));
  EXPECT_EQ(draw_sample_indices(t.view(), s), draw_sample_indices(t.view(), s));
}

TEST(StratifiedTimer, InvalidPeriodThrows) {
  EXPECT_THROW(StratifiedTimerSampler(MicroDuration{0}, Rng(1)),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Factory + cross-method properties

TEST(MakeSampler, BuildsEveryMethod) {
  SamplerSpec spec;
  spec.granularity = 10;
  spec.population = 1000;
  spec.mean_interarrival_usec = 2358.0;
  for (auto m : {Method::kSystematicCount, Method::kStratifiedCount,
                 Method::kSimpleRandom, Method::kSystematicTimer,
                 Method::kStratifiedTimer}) {
    spec.method = m;
    auto s = make_sampler(spec);
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(s->name().empty());
  }
}

TEST(MakeSampler, ValidatesSpecs) {
  SamplerSpec spec;
  spec.granularity = 0;
  EXPECT_THROW((void)make_sampler(spec), std::invalid_argument);

  spec.granularity = 10;
  spec.method = Method::kSimpleRandom;
  spec.population = 0;
  EXPECT_THROW((void)make_sampler(spec), std::invalid_argument);

  spec.method = Method::kSystematicTimer;
  spec.mean_interarrival_usec = 0.0;
  EXPECT_THROW((void)make_sampler(spec), std::invalid_argument);
}

TEST(MethodNames, AreDistinct) {
  std::set<std::string> names;
  for (auto m : {Method::kSystematicCount, Method::kStratifiedCount,
                 Method::kSimpleRandom, Method::kSystematicTimer,
                 Method::kStratifiedTimer}) {
    names.insert(method_name(m));
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_TRUE(method_is_timer_driven(Method::kSystematicTimer));
  EXPECT_TRUE(method_is_timer_driven(Method::kStratifiedTimer));
  EXPECT_FALSE(method_is_timer_driven(Method::kSystematicCount));
}

/// Property suite: invariants that must hold for every discipline.
class AllMethodsTest : public ::testing::TestWithParam<Method> {};

TEST_P(AllMethodsTest, AchievedFractionApproximatesTarget) {
  auto t = uniform_trace(20000, 2358);
  SamplerSpec spec;
  spec.method = GetParam();
  spec.granularity = 20;
  spec.population = t.size();
  spec.mean_interarrival_usec = 2358.0;
  spec.seed = 99;
  auto sampler = make_sampler(spec);
  const auto sample = draw(t.view(), *sampler);
  EXPECT_NEAR(sample.fraction(), 0.05, 0.01);
}

TEST_P(AllMethodsTest, IndicesAreStrictlyIncreasingAndInRange) {
  auto t = uniform_trace(5000, 1700);
  SamplerSpec spec;
  spec.method = GetParam();
  spec.granularity = 16;
  spec.population = t.size();
  spec.mean_interarrival_usec = 1700.0;
  auto sampler = make_sampler(spec);
  const auto idx = draw_sample_indices(t.view(), *sampler);
  ASSERT_FALSE(idx.empty());
  for (std::size_t i = 1; i < idx.size(); ++i) {
    EXPECT_LT(idx[i - 1], idx[i]);
  }
  EXPECT_LT(idx.back(), t.size());
}

TEST_P(AllMethodsTest, RepeatedDrawsAreIdentical) {
  auto t = uniform_trace(3000, 2000);
  SamplerSpec spec;
  spec.method = GetParam();
  spec.granularity = 8;
  spec.population = t.size();
  spec.mean_interarrival_usec = 2000.0;
  spec.seed = 4;
  auto sampler = make_sampler(spec);
  const auto a = draw_sample_indices(t.view(), *sampler);
  const auto b = draw_sample_indices(t.view(), *sampler);
  EXPECT_EQ(a, b);
}

TEST_P(AllMethodsTest, EmptyViewYieldsEmptySample) {
  SamplerSpec spec;
  spec.method = GetParam();
  spec.granularity = 4;
  spec.population = 100;  // declared, but stream is empty
  spec.mean_interarrival_usec = 1000.0;
  auto sampler = make_sampler(spec);
  EXPECT_TRUE(draw_sample_indices(trace::TraceView{}, *sampler).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllMethodsTest,
    ::testing::Values(Method::kSystematicCount, Method::kStratifiedCount,
                      Method::kSimpleRandom, Method::kSystematicTimer,
                      Method::kStratifiedTimer),
    [](const ::testing::TestParamInfo<Method>& info) {
      switch (info.param) {
        case Method::kSystematicCount: return "SystematicCount";
        case Method::kStratifiedCount: return "StratifiedCount";
        case Method::kSimpleRandom: return "SimpleRandom";
        case Method::kSystematicTimer: return "SystematicTimer";
        case Method::kStratifiedTimer: return "StratifiedTimer";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace netsample::core
#pragma GCC diagnostic pop
