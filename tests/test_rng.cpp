#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace netsample {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split();
  // The child stream should not reproduce the parent's continuation.
  Rng parent2(7);
  (void)parent2();  // consume the value that seeded the child
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == parent2()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanAndVariance) {
  Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformBelowRespectsBound) {
  Rng rng(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) {
      ASSERT_LT(rng.uniform_below(bound), bound);
    }
  }
}

TEST(Rng, UniformBelowZeroReturnsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_below(0), 0u);
}

/// Lemire's method as it stood before the threshold became lazy: the
/// threshold 2^64 mod bound computed up front and every word tested
/// against it. uniform_below must draw exactly these values.
std::uint64_t eager_uniform_below(Rng& rng, std::uint64_t bound) {
  if (bound == 0) return 0;
  const std::uint64_t threshold = (-bound) % bound;
  for (;;) {
    const std::uint64_t r = rng();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(r) * static_cast<unsigned __int128>(bound);
    if (static_cast<std::uint64_t>(m) >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

TEST(Rng, UniformBelowDrawsWhatTheEagerThresholdLoopDraws) {
  // 2^63 + 1 rejects about half its words; 2^32 +- 1 and 2^64 - 1 reject
  // far more often than the sampler bounds (< 2^32) ever do.
  const std::uint64_t bounds[] = {
      1ULL,          2ULL,          3ULL,
      (1ULL << 32) - 1, (1ULL << 32) + 1, 1ULL << 63,
      (1ULL << 63) + 1, ~0ULL};
  for (const std::uint64_t seed : {1ULL, 7ULL, 2024ULL, 0xDEADBEEFULL}) {
    for (const std::uint64_t bound : bounds) {
      Rng lazy(seed), eager(seed);
      for (int i = 0; i < 100000; ++i) {
        ASSERT_EQ(lazy.uniform_below(bound), eager_uniform_below(eager, bound))
            << "seed " << seed << " bound " << bound << " draw " << i;
      }
      // Same words consumed, rejections included.
      EXPECT_EQ(lazy(), eager()) << "seed " << seed << " bound " << bound;
    }
  }
}

TEST(Rng, ResumedStateContinuesTheSequence) {
  Rng rng(99);
  for (int i = 0; i < 37; ++i) (void)rng();
  Rng resumed = detail::RngState::resume(detail::RngState::of(rng));
  EXPECT_EQ(detail::RngState::of(resumed), detail::RngState::of(rng));
  for (int i = 0; i < 100; ++i) ASSERT_EQ(resumed(), rng());
}

TEST(Rng, UniformBelowCoversAllResidues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformBelowIsApproximatelyUniform) {
  Rng rng(17);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_below(bound)];
  for (auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n / 10.0));
  }
}

TEST(Rng, UniformInInclusiveRange) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_in(5, 9);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 9u);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2358.0);
  EXPECT_NEAR(sum / n, 2358.0, 30.0);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) ASSERT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(31);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(37);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalMeanMatchesFormula) {
  Rng rng(41);
  const double mu = 0.0, sigma = 0.5;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, sigma);
  EXPECT_NEAR(sum / n, std::exp(mu + sigma * sigma / 2.0), 0.02);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(43);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(rng.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, ParetoMeanMatchesFormula) {
  Rng rng(47);
  const double xm = 1.0, alpha = 3.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.pareto(xm, alpha);
  EXPECT_NEAR(sum / n, alpha * xm / (alpha - 1.0), 0.02);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(53);
  const double p = 0.2;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.1);
}

TEST(Rng, GeometricWithCertainSuccessIsZero) {
  Rng rng(59);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, BernoulliFrequencyMatches) {
  Rng rng(61);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

}  // namespace
}  // namespace netsample
