// Randomized differential suite for the core::simd dispatch layer and its
// kernels. The contract under test (core/simd/simd.h): every variant is
// BIT-IDENTICAL to the scalar reference — same bin ids (including values
// sitting exactly on bin edges), same histogram counts, same selected index
// sets (the batched RNG kernels replay the streaming samplers' raw-word
// sequence), hence the same phi/chi-squared to the last bit over the full
// figure grid at any --jobs level. "Close" is a bug.
//
// Vector-ISA cases self-skip on machines where no vector variant is
// available; the dispatch/threshold/fallback cases run everywhere.
#include "core/simd/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/samplers.h"
#include "core/select_indices.h"
#include "core/simd/lanes.h"
#include "core/targets.h"
#include "core/trace_cache.h"
#include "exper/experiment.h"
#include "exper/parallel.h"
#include "exper/runner.h"
#include "stats/histogram.h"
#include "util/rng.h"

// make_sampler is deprecated since v1.3: the lane-block tests compare the
// batched kernels against the streaming oracle it builds.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

namespace netsample {
namespace {

namespace simd = core::simd;

/// Scoped variant routing: restores the environment default on exit so test
/// order can't leak a forced variant into other tests.
struct VariantGuard {
  explicit VariantGuard(simd::Variant v) { simd::force_variant(v); }
  ~VariantGuard() { simd::clear_variant_override(); }
};

/// The vector variants this machine can actually execute (avx2 on x86-64
/// with AVX2, neon on aarch64; possibly empty in an emulator).
std::vector<simd::Variant> vector_variants() {
  std::vector<simd::Variant> out;
  for (auto v : {simd::Variant::kAvx2, simd::Variant::kNeon}) {
    if (simd::variant_available(v)) out.push_back(v);
  }
  return out;
}

// --------------------------------------------------------------------------
// Dispatch plumbing.

TEST(SimdDispatch, VariantNamesRoundTrip) {
  for (auto v : {simd::Variant::kScalar, simd::Variant::kAvx2,
                 simd::Variant::kNeon}) {
    const auto parsed = simd::parse_variant(simd::variant_name(v));
    ASSERT_TRUE(parsed.has_value()) << simd::variant_name(v);
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(simd::parse_variant("").has_value());
  EXPECT_FALSE(simd::parse_variant("sse2").has_value());
  EXPECT_FALSE(simd::parse_variant("AVX2").has_value());  // case-sensitive
}

TEST(SimdDispatch, ScalarIsAlwaysAvailableAndAllNull) {
  EXPECT_TRUE(simd::variant_compiled(simd::Variant::kScalar));
  EXPECT_TRUE(simd::variant_available(simd::Variant::kScalar));
  // Scalar code lives at the call sites; the scalar table must be all-null
  // so the untouched reference path runs.
  const simd::KernelTable& t = simd::kernels_for(simd::Variant::kScalar);
  EXPECT_EQ(t.classify_u32, nullptr);
  EXPECT_EQ(t.classify_gaps_u64, nullptr);
  EXPECT_EQ(t.accumulate_u8, nullptr);
  EXPECT_EQ(t.stratified_count, nullptr);
  EXPECT_EQ(t.simple_random, nullptr);
}

TEST(SimdDispatch, ForceBeatsDefaultAndClearRestoresIt) {
  const simd::Variant before = simd::active_variant();
  {
    VariantGuard guard(simd::Variant::kScalar);
    EXPECT_EQ(simd::active_variant(), simd::Variant::kScalar);
  }
  EXPECT_EQ(simd::active_variant(), before);
}

TEST(SimdDispatch, UnavailableVariantResolvesToScalarNeverAnotherIsa) {
  for (auto v : {simd::Variant::kAvx2, simd::Variant::kNeon}) {
    if (simd::variant_available(v)) continue;
    VariantGuard guard(v);
    EXPECT_EQ(simd::active_variant(), simd::Variant::kScalar)
        << "forcing unavailable " << simd::variant_name(v);
  }
}

TEST(SimdDispatch, BestVariantIsAvailableAndVectorTablesNonEmpty) {
  EXPECT_TRUE(simd::variant_available(simd::best_variant()));
  for (auto v : vector_variants()) {
    const simd::KernelTable& t = simd::kernels_for(v);
    // Every compiled vector variant provides at least the classify pair.
    EXPECT_NE(t.classify_u32, nullptr) << simd::variant_name(v);
    EXPECT_NE(t.classify_gaps_u64, nullptr) << simd::variant_name(v);
    EXPECT_NE(t.accumulate_u8, nullptr) << simd::variant_name(v);
  }
}

// --------------------------------------------------------------------------
// Edge -> integer threshold conversion.

TEST(SimdThresholds, MatchesHistogramBinIndexAroundEveryEdge) {
  for (auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    const std::vector<double> edges = core::paper_bin_edges(target);
    const auto thr = simd::integer_thresholds(edges);
    ASSERT_TRUE(thr.has_value());
    ASSERT_EQ(thr->size(), edges.size());
    const stats::Histogram layout{edges};
    for (double e : edges) {
      // Probe exactly on the edge and one integer either side: the
      // boundary-value packets the compare ladder must not misplace.
      for (std::int64_t d : {-1, 0, 1}) {
        const auto v = static_cast<std::uint64_t>(e) + d;
        std::size_t got = 0;
        for (std::uint64_t t : *thr) got += (v >= t) ? 1 : 0;
        EXPECT_EQ(got, layout.bin_index(static_cast<double>(v)))
            << "edge " << e << " probe " << v;
      }
    }
  }
}

TEST(SimdThresholds, FractionalEdgesUseCeilSemantics) {
  // v >= ceil(e) iff v >= e for integer v: edge 2.5 must become 3.
  const std::vector<double> edges = {2.5};
  const auto thr = simd::integer_thresholds(edges);
  ASSERT_TRUE(thr.has_value());
  EXPECT_EQ((*thr)[0], 3u);
}

TEST(SimdThresholds, UnrepresentableEdgesDecline) {
  EXPECT_FALSE(simd::integer_thresholds(std::vector<double>{-1.0}).has_value());
  EXPECT_FALSE(simd::integer_thresholds(
                   std::vector<double>{std::numeric_limits<double>::infinity()})
                   .has_value());
  EXPECT_FALSE(simd::integer_thresholds(
                   std::vector<double>{std::nan("")}).has_value());
  EXPECT_FALSE(
      simd::integer_thresholds(std::vector<double>{9.3e18}).has_value());
  // u32 narrowing declines thresholds beyond 2^32 - 1.
  EXPECT_TRUE(simd::integer_thresholds(std::vector<double>{4.0e9}).has_value());
  EXPECT_FALSE(
      simd::integer_thresholds_u32(std::vector<double>{5.0e9}).has_value());
}

// --------------------------------------------------------------------------
// Classify kernels vs stats::Histogram, including edge-exact values and
// sub-vector-width tails.

class SimdKernelsTest : public ::testing::TestWithParam<simd::Variant> {};

INSTANTIATE_TEST_SUITE_P(
    AvailableVariants, SimdKernelsTest,
    ::testing::ValuesIn(vector_variants().empty()
                            ? std::vector<simd::Variant>{simd::Variant::kScalar}
                            : vector_variants()),
    [](const ::testing::TestParamInfo<simd::Variant>& info) {
      return simd::variant_name(info.param);
    });

TEST_P(SimdKernelsTest, ClassifyU32MatchesHistogramBinIndex) {
  if (GetParam() == simd::Variant::kScalar) GTEST_SKIP() << "no vector ISA";
  const auto classify = simd::kernels_for(GetParam()).classify_u32;
  ASSERT_NE(classify, nullptr);

  const std::vector<double> edges = core::paper_bin_edges(
      core::Target::kPacketSize);
  const auto thr = simd::integer_thresholds_u32(edges);
  ASSERT_TRUE(thr.has_value());
  const stats::Histogram layout{edges};

  Rng rng(7);
  // Every length from empty through two full vectors plus a tail, then a
  // large buffer: tails and alignment can't hide.
  for (std::size_t n = 0; n <= 33; ++n) {
    for (int round = 0; round < 8; ++round) {
      std::vector<std::uint32_t> values(n);
      for (auto& v : values) {
        if (rng.uniform_below(4) == 0 && !edges.empty()) {
          // Land exactly on an edge or one off it.
          const double e = edges[rng.uniform_below(edges.size())];
          v = static_cast<std::uint32_t>(e) +
              static_cast<std::uint32_t>(rng.uniform_below(3)) - 1;
        } else {
          v = static_cast<std::uint32_t>(rng.uniform_below(65536));
        }
      }
      std::vector<std::uint8_t> out(n, 0xEE);
      classify(values.data(), n, thr->data(), thr->size(), out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], layout.bin_index(static_cast<double>(values[i])))
            << "n=" << n << " i=" << i << " v=" << values[i];
      }
    }
  }
  std::vector<std::uint32_t> big(4096);
  for (auto& v : big) v = static_cast<std::uint32_t>(rng.uniform_below(3000));
  std::vector<std::uint8_t> out(big.size());
  classify(big.data(), big.size(), thr->data(), thr->size(), out.data());
  for (std::size_t i = 0; i < big.size(); ++i) {
    ASSERT_EQ(out[i], layout.bin_index(static_cast<double>(big[i]))) << i;
  }
}

TEST_P(SimdKernelsTest, ClassifyGapsMatchesHistogramBinIndex) {
  if (GetParam() == simd::Variant::kScalar) GTEST_SKIP() << "no vector ISA";
  const auto classify = simd::kernels_for(GetParam()).classify_gaps_u64;
  ASSERT_NE(classify, nullptr);

  const std::vector<double> edges =
      core::paper_bin_edges(core::Target::kInterarrivalTime);
  const auto thr = simd::integer_thresholds(edges);
  ASSERT_TRUE(thr.has_value());
  const stats::Histogram layout{edges};

  Rng rng(11);
  for (std::size_t n = 0; n <= 33; ++n) {
    for (int round = 0; round < 8; ++round) {
      std::vector<std::uint64_t> ts(n);
      std::uint64_t t = rng.uniform_below(10000);
      for (auto& x : ts) {
        x = t;
        // Mix zero gaps, edge-exact gaps, and random gaps.
        const std::uint64_t roll = rng.uniform_below(4);
        if (roll == 0) {
          // burst: zero gap
        } else if (roll == 1 && !thr->empty()) {
          const std::uint64_t e = (*thr)[rng.uniform_below(thr->size())];
          t += e + rng.uniform_below(3) - 1;
        } else {
          t += rng.uniform_below(10000);
        }
      }
      std::vector<std::uint8_t> out(n, 0xEE);
      classify(ts.data(), n, thr->data(), thr->size(), out.data());
      if (n > 0) {
        EXPECT_EQ(out[0], 0) << "out[0] is a placeholder";
      }
      for (std::size_t i = 1; i < n; ++i) {
        ASSERT_EQ(out[i],
                  layout.bin_index(static_cast<double>(ts[i] - ts[i - 1])))
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST_P(SimdKernelsTest, AccumulateMatchesScalarGather) {
  if (GetParam() == simd::Variant::kScalar) GTEST_SKIP() << "no vector ISA";
  const auto accumulate = simd::kernels_for(GetParam()).accumulate_u8;
  ASSERT_NE(accumulate, nullptr);

  Rng rng(13);
  const std::size_t n_bins = 6;
  for (std::size_t n_pop : {1ul, 5ul, 64ul, 1000ul}) {
    std::vector<std::uint8_t> bins(n_pop);
    for (auto& b : bins) b = static_cast<std::uint8_t>(rng.uniform_below(n_bins));
    for (std::size_t n_idx = 0; n_idx <= 33; ++n_idx) {
      for (bool skip_rel0 : {false, true}) {
        std::vector<std::size_t> indices(n_idx);
        for (auto& ix : indices) ix = rng.uniform_below(n_pop);
        if (n_idx > 0 && rng.uniform_below(2) == 0) indices[0] = 0;

        std::vector<std::uint64_t> expected(n_bins, 0);
        for (std::size_t ix : indices) {
          if (skip_rel0 && ix == 0) continue;
          ++expected[bins[ix]];
        }
        std::vector<std::uint64_t> got(n_bins, 0);
        accumulate(bins.data(), indices.data(), indices.size(), skip_rel0,
                   got.data(), n_bins);
        ASSERT_EQ(got, expected)
            << "pop=" << n_pop << " idx=" << n_idx << " skip=" << skip_rel0;
      }
    }
  }
}

// --------------------------------------------------------------------------
// End-to-end bit-identity: select_indices and the cache under a forced
// vector variant vs the forced-scalar reference, over fuzzed traces/specs.

/// Same bursty fuzz traffic as test_select_indices.cpp: zero gaps, typical
/// gaps, and idle periods (the regimes where kernels branch differently).
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

TEST_P(SimdKernelsTest, CacheBinsBitIdenticalToScalarBuild) {
  if (GetParam() == simd::Variant::kScalar) GTEST_SKIP() << "no vector ISA";
  const trace::Trace t = fuzz_trace(101, 4097);  // off vector width on purpose
  std::unique_ptr<core::BinnedTraceCache> scalar, vec;
  {
    VariantGuard guard(simd::Variant::kScalar);
    scalar = std::make_unique<core::BinnedTraceCache>(t.view());
  }
  {
    VariantGuard guard(GetParam());
    vec = std::make_unique<core::BinnedTraceCache>(t.view());
  }
  ASSERT_EQ(scalar->size(), vec->size());
  for (std::size_t i = 0; i < scalar->size(); ++i) {
    ASSERT_EQ(scalar->size_bins()[i], vec->size_bins()[i]) << i;
    ASSERT_EQ(scalar->gap_bins()[i], vec->gap_bins()[i]) << i;
  }
}

TEST_P(SimdKernelsTest, SelectIndicesBitIdenticalAcrossFuzzedSpecs) {
  if (GetParam() == simd::Variant::kScalar) GTEST_SKIP() << "no vector ISA";
  const trace::Trace t = fuzz_trace(23, 6000);
  const core::BinnedTraceCache cache(t.view());
  const std::size_t n = cache.size();

  static const core::Method kMethods[] = {
      core::Method::kSystematicCount, core::Method::kStratifiedCount,
      core::Method::kSimpleRandom, core::Method::kSystematicTimer,
      core::Method::kStratifiedTimer};

  Rng rng(99);
  for (int round = 0; round < 400; ++round) {
    // Ragged sub-views so populations hit every residue mod vector width.
    const std::size_t b = rng.uniform_below(n / 2);
    const std::size_t e = b + 1 + rng.uniform_below(n - b);
    core::SamplerSpec spec;
    spec.method = kMethods[rng.uniform_below(5)];
    // k ladder biased toward the interesting cases: 1, powers of two,
    // exact divisors of the population, and k > N.
    switch (rng.uniform_below(4)) {
      case 0: spec.granularity = 1 + rng.uniform_below(8); break;
      case 1: spec.granularity = 1ull << rng.uniform_below(15); break;
      case 2: spec.granularity = 1 + rng.uniform_below(2 * (e - b) + 4); break;
      default: spec.granularity = e - b + 1 + rng.uniform_below(64); break;
    }
    spec.offset = rng.uniform_below(spec.granularity);
    spec.population = e - b;
    spec.mean_interarrival_usec = 1.0 + 4000.0 * rng.uniform01();
    spec.seed = rng();
    spec.expiry_policy = rng.uniform_below(2) == 0
                             ? core::ExpiryPolicy::kCoalesce
                             : core::ExpiryPolicy::kQueue;
    spec.timer_phase_usec = rng();

    std::vector<std::size_t> ref, got;
    {
      VariantGuard guard(simd::Variant::kScalar);
      ref = core::select_indices(spec, cache, b, e);
    }
    {
      VariantGuard guard(GetParam());
      got = core::select_indices(spec, cache, b, e);
    }
    ASSERT_EQ(got, ref) << core::method_name(spec.method)
                        << " k=" << spec.granularity << " seed=" << spec.seed
                        << " view=[" << b << "," << e << ")";
  }
}

TEST_P(SimdKernelsTest, SampleHistogramBitIdenticalAcrossVariants) {
  if (GetParam() == simd::Variant::kScalar) GTEST_SKIP() << "no vector ISA";
  const trace::Trace t = fuzz_trace(55, 5000);
  const core::BinnedTraceCache cache(t.view());

  Rng rng(5);
  for (int round = 0; round < 100; ++round) {
    const std::size_t b = rng.uniform_below(cache.size() / 2);
    const std::size_t e = b + 1 + rng.uniform_below(cache.size() - b);
    // Random index sets, possibly containing relative 0 and duplicates of
    // the kind a systematic sampler never emits — the kernel must not care.
    std::vector<std::size_t> idx(rng.uniform_below(400));
    for (auto& ix : idx) ix = rng.uniform_below(e - b);
    std::sort(idx.begin(), idx.end());

    for (auto target :
         {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
      stats::Histogram ref{{}}, got{{}};
      {
        VariantGuard guard(simd::Variant::kScalar);
        ref = cache.sample_histogram(target, idx, b);
      }
      {
        VariantGuard guard(GetParam());
        got = cache.sample_histogram(target, idx, b);
      }
      ASSERT_EQ(std::vector<std::uint64_t>(got.counts().begin(),
                                           got.counts().end()),
                std::vector<std::uint64_t>(ref.counts().begin(),
                                           ref.counts().end()))
          << "target=" << static_cast<int>(target) << " view=[" << b << ","
          << e << ") n_idx=" << idx.size();
    }
  }
}

// --------------------------------------------------------------------------
// Full-grid phi bit-identity: scalar vs best vector variant vs the
// streaming oracle, serial and threaded. The sweep-level version of the
// kernel contract.

class SimdGridTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ex_ = new exper::Experiment(23, 2.0); }
  static void TearDownTestSuite() {
    delete ex_;
    ex_ = nullptr;
  }

  static std::vector<exper::GridTask> small_grid() {
    std::vector<exper::GridTask> tasks;
    exper::CellConfig base;
    base.interval = ex_->interval(90.0);
    base.mean_interarrival_usec = ex_->mean_interarrival_usec();
    base.cache = &ex_->binned_cache();
    for (auto target :
         {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
      for (std::uint64_t k : exper::granularity_ladder(4, 4096)) {
        for (auto m :
             {core::Method::kSystematicCount, core::Method::kStratifiedCount,
              core::Method::kSimpleRandom, core::Method::kSystematicTimer,
              core::Method::kStratifiedTimer}) {
          exper::CellConfig cfg = base;
          cfg.method = m;
          cfg.target = target;
          cfg.granularity = k;
          cfg.replications = 3;
          tasks.push_back({cfg, 0});
        }
      }
    }
    return tasks;
  }

  static void expect_bit_identical(const std::vector<exper::CellResult>& a,
                                   const std::vector<exper::CellResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].replications.size(), b[i].replications.size())
          << "cell " << i;
      for (std::size_t r = 0; r < a[i].replications.size(); ++r) {
        const auto& ma = a[i].replications[r];
        const auto& mb = b[i].replications[r];
        // Exact double equality: identical counts must flow into identical
        // metrics, bit for bit.
        EXPECT_EQ(ma.phi, mb.phi) << "cell " << i << " rep " << r;
        EXPECT_EQ(ma.chi2, mb.chi2) << "cell " << i << " rep " << r;
        EXPECT_EQ(ma.significance, mb.significance) << "cell " << i;
        EXPECT_EQ(ma.avg_norm_dev, mb.avg_norm_dev) << "cell " << i;
        EXPECT_EQ(ma.sample_n, mb.sample_n) << "cell " << i << " rep " << r;
      }
    }
  }

  static exper::Experiment* ex_;
};

exper::Experiment* SimdGridTest::ex_ = nullptr;

TEST_F(SimdGridTest, FullGridPhiBitIdenticalAcrossVariantsAndJobs) {
  const auto tasks = small_grid();

  std::vector<exper::CellResult> scalar1;
  {
    VariantGuard guard(simd::Variant::kScalar);
    exper::ParallelRunner serial(1);
    scalar1 = serial.run(tasks, 23);
  }
  {
    // --jobs 1 is the reference plan; 8 must match it bit for bit.
    VariantGuard guard(simd::Variant::kScalar);
    exper::ParallelRunner threaded(8);
    expect_bit_identical(scalar1, threaded.run(tasks, 23));
  }
  {
    VariantGuard guard(simd::best_variant());
    exper::ParallelRunner serial(1);
    exper::ParallelRunner threaded(8);
    expect_bit_identical(scalar1, serial.run(tasks, 23));
    expect_bit_identical(scalar1, threaded.run(tasks, 23));
  }
  {
    // The streaming samplers stay the oracle underneath every variant: the
    // reference runs through the same runner, so seeds match by construction.
    VariantGuard guard(simd::best_variant());
    exper::RunOptions opts;
    opts.cell_runner = [](const exper::CellConfig& cfg, std::size_t) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
      return exper::run_cell_reference(cfg);
#pragma GCC diagnostic pop
    };
    exper::ParallelRunner serial(1);
    exper::RunReport report = serial.run(tasks, 23, opts);
    ASSERT_TRUE(report.all_ok()) << report.first_failure().to_string();
    std::vector<exper::CellResult> reference;
    for (auto& cell : report.cells) reference.push_back(std::move(cell.result));
    expect_bit_identical(scalar1, reference);
  }
}

// --------------------------------------------------------------------------
// The four-lane block source (core/simd/lanes.h): its jump constants, its
// words, and both batched kernels over views that span many blocks.

using Poly = simd::Poly256;
using Words = detail::RngState::Words;

/// Berlekamp-Massey over GF(2): the connection polynomial c (c[0] = 1) of
/// the shortest linear recurrence that generates `bits`.
std::vector<std::uint8_t> berlekamp_massey(
    const std::vector<std::uint8_t>& bits) {
  const std::size_t n = bits.size();
  std::vector<std::uint8_t> c(n + 1, 0), b(n + 1, 0);
  c[0] = b[0] = 1;
  std::size_t l = 0, m = 1;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t d = bits[i];
    for (std::size_t j = 1; j <= l; ++j) d ^= c[j] & bits[i - j];
    if (d == 0) {
      ++m;
      continue;
    }
    const std::vector<std::uint8_t> before = c;
    for (std::size_t j = 0; j + m <= n; ++j) c[j + m] ^= b[j];
    if (2 * l <= i) {
      l = i + 1 - l;
      b = before;
      m = 1;
    } else {
      ++m;
    }
  }
  c.resize(l + 1);
  return c;
}

/// a * x mod p, where p = x^256 + p_low.
Poly times_x(Poly a, const Poly& p_low) {
  const bool carry = (a[3] >> 63) != 0;
  for (std::size_t w = 3; w > 0; --w) a[w] = (a[w] << 1) | (a[w - 1] >> 63);
  a[0] <<= 1;
  if (carry) {
    for (std::size_t w = 0; w < 4; ++w) a[w] ^= p_low[w];
  }
  return a;
}

Poly mulmod(const Poly& a, const Poly& b, const Poly& p_low) {
  Poly r{};
  for (int i = 255; i >= 0; --i) {
    r = times_x(r, p_low);
    if ((b[static_cast<std::size_t>(i) / 64] >> (i % 64) & 1) != 0) {
      for (std::size_t w = 0; w < 4; ++w) r[w] ^= a[w];
    }
  }
  return r;
}

/// x^n mod p by square-and-multiply.
Poly x_pow_mod(std::uint64_t n, const Poly& p_low) {
  Poly result{1, 0, 0, 0};
  Poly base{2, 0, 0, 0};
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) result = mulmod(result, base, p_low);
    base = mulmod(base, base, p_low);
  }
  return result;
}

/// xoshiro's published jump() loop with the constant `poly`.
Words jumped(const Words& start, const Poly& poly) {
  Rng rng = detail::RngState::resume(start);
  Words acc{};
  for (std::size_t i = 0; i < 256; ++i) {
    if ((poly[i / 64] >> (i % 64) & 1) != 0) {
      const Words now = detail::RngState::of(rng);
      for (std::size_t w = 0; w < 4; ++w) acc[w] ^= now[w];
    }
    (void)rng();
  }
  return acc;
}

TEST(SimdLanes, JumpConstantsAreTheRecomputedPowersOfX) {
  // The characteristic polynomial p of xoshiro256**'s linear engine, found
  // by Berlekamp-Massey over 512 bits of one state bit's sequence.
  Rng rng(1);
  std::vector<std::uint8_t> bits;
  for (int i = 0; i < 512; ++i) {
    bits.push_back(
        static_cast<std::uint8_t>(detail::RngState::of(rng)[0] & 1));
    (void)rng();
  }
  const std::vector<std::uint8_t> c = berlekamp_massey(bits);
  ASSERT_EQ(c.size(), 257u) << "the recurrence must have degree 256";
  Poly p_low{};  // p = x^256 + p_low; x^(256 - j) has coefficient c[j]
  for (std::size_t j = 1; j <= 256; ++j) {
    const std::size_t i = 256 - j;
    if (c[j] != 0) p_low[i / 64] |= 1ULL << (i % 64);
  }
  // p is right: the published 2^128-step jump() constant is x^(2^128) mod p.
  Poly big{2, 0, 0, 0};
  for (int i = 0; i < 128; ++i) big = mulmod(big, big, p_low);
  EXPECT_EQ(big, (Poly{0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                       0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL}));
  for (std::size_t j = 0; j < simd::kLaneJumps.size(); ++j) {
    EXPECT_EQ(simd::kLaneJumps[j], x_pow_mod((j + 1) * simd::kLaneWords, p_low))
        << "x^" << (j + 1) << "B mod p";
  }
}

TEST(SimdLanes, JumpConstantsMoveAStateAsSingleSteps) {
  for (const std::uint64_t seed : {1ULL, 23ULL, 0xC0FFEEULL}) {
    const Words start = detail::RngState::of(Rng(seed));
    for (std::size_t j = 0; j < simd::kLaneJumps.size(); ++j) {
      Rng stepped = detail::RngState::resume(start);
      for (std::size_t i = 0; i < (j + 1) * simd::kLaneWords; ++i) {
        (void)stepped();
      }
      EXPECT_EQ(jumped(start, simd::kLaneJumps[j]),
                detail::RngState::of(stepped))
          << "seed " << seed << ", lane " << j + 1;
    }
  }
}

TEST(SimdLanes, LaneWordsAreTheRngWords) {
  if (!simd::variant_available(simd::Variant::kAvx2)) {
    GTEST_SKIP() << "no AVX2";
  }
  // Three whole blocks and the start of a fourth.
  const std::size_t n = 3 * 4 * simd::kLaneWords + 5;
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL, 2024ULL, ~0ULL}) {
    std::vector<std::uint64_t> words(n);
    ASSERT_TRUE(simd::avx2_lane_words(seed, words));
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(words[i], rng()) << "seed " << seed << " word " << i;
    }
  }
}

/// The scalar cursor's selection over n offered packets (count methods
/// read only the span's length).
std::vector<std::size_t> cursor_indices(const core::SamplerSpec& spec,
                                        std::size_t n) {
  const std::vector<std::uint64_t> ts(n, 0);
  core::SelectCursor cursor(spec);
  std::vector<std::size_t> out;
  cursor.advance(ts, &out);
  return out;
}

/// View lengths around one and two lane blocks.
std::vector<std::size_t> block_spanning_lengths() {
  const std::size_t block = 4 * simd::kLaneWords;
  return {block - 1, block, block + 1, 2 * block + 3};
}

/// Declared populations below, equal to and above a view of `len` packets.
std::vector<std::size_t> populations_around(std::size_t len) {
  return {len - simd::kLaneWords - 7, len, len + simd::kLaneWords + 7};
}

TEST_P(SimdKernelsTest, BatchedSamplersMatchCursorAndOracleAcrossLaneBlocks) {
  if (GetParam() == simd::Variant::kScalar) GTEST_SKIP() << "no vector ISA";
  const trace::Trace t = fuzz_trace(31, 300000);
  const core::BinnedTraceCache cache(t.view());
  Rng rng(3);
  for (const std::size_t len : block_spanning_lengths()) {
    const std::size_t b = rng.uniform_below(cache.size() - len);
    const trace::TraceView view(t.view().packets().subspan(b, len));
    for (const std::uint64_t k :
         {1ULL, 2ULL, 3ULL, 50ULL, 1024ULL, 32768ULL,
          static_cast<unsigned long long>(len) + 1}) {
      std::vector<core::SamplerSpec> specs;
      core::SamplerSpec spec;
      spec.granularity = k;
      spec.method = core::Method::kStratifiedCount;
      spec.seed = rng();
      specs.push_back(spec);
      for (const std::size_t population : populations_around(len)) {
        spec.method = core::Method::kSimpleRandom;
        spec.population = population;
        spec.seed = rng();
        specs.push_back(spec);
      }
      for (const auto& s : specs) {
        std::vector<std::size_t> ref, got;
        {
          VariantGuard guard(simd::Variant::kScalar);
          ref = core::select_indices(s, cache, b, b + len);
        }
        {
          VariantGuard guard(GetParam());
          got = core::select_indices(s, cache, b, b + len);
        }
        const auto oracle = core::draw_sample_indices(view, *core::make_sampler(s));
        const std::string where = std::string(core::method_name(s.method)) +
                                  " k=" + std::to_string(k) +
                                  " len=" + std::to_string(len) +
                                  " population=" + std::to_string(s.population);
        ASSERT_EQ(ref, oracle) << where;
        ASSERT_EQ(got, ref) << where;
      }
    }
  }
}

TEST(SimdLanes, ReplayingEveryBlockKeepsTheIndices) {
  if (!simd::variant_available(simd::Variant::kAvx2)) {
    GTEST_SKIP() << "no AVX2";
  }
  const simd::KernelTable& lanes = simd::kernels_for(simd::Variant::kAvx2);
  const simd::KernelTable& replay = simd::avx2_replay_kernel_table();
  ASSERT_NE(replay.stratified_count, nullptr);
  ASSERT_NE(replay.simple_random, nullptr);
  std::vector<std::size_t> lengths = block_spanning_lengths();
  lengths.push_back(100000);
  Rng rng(11);
  for (const std::size_t n : lengths) {
    for (const std::uint64_t k :
         {1ULL, 2ULL, 3ULL, 50ULL, 1024ULL, 32768ULL,
          static_cast<unsigned long long>(n) + 1}) {
      core::SamplerSpec spec;
      spec.method = core::Method::kStratifiedCount;
      spec.granularity = k;
      spec.seed = rng();
      std::vector<std::size_t> vec, rep;
      ASSERT_TRUE(lanes.stratified_count(k, spec.seed, n, &vec));
      ASSERT_TRUE(replay.stratified_count(k, spec.seed, n, &rep));
      const auto ref = cursor_indices(spec, n);
      ASSERT_EQ(vec, ref) << "stratified k=" << k << " n=" << n;
      ASSERT_EQ(rep, ref) << "stratified replay k=" << k << " n=" << n;
      for (const std::size_t population : populations_around(n)) {
        spec.method = core::Method::kSimpleRandom;
        spec.population = population;
        spec.seed = rng();
        const std::uint64_t pick = core::spec_simple_random_n(spec);
        const std::uint64_t limit = std::min<std::uint64_t>(n, population);
        ASSERT_TRUE(lanes.simple_random(pick, population, limit, spec.seed, &vec));
        ASSERT_TRUE(
            replay.simple_random(pick, population, limit, spec.seed, &rep));
        const auto sref = cursor_indices(spec, n);
        ASSERT_EQ(vec, sref) << "simple random k=" << k << " n=" << n
                             << " population=" << population;
        ASSERT_EQ(rep, sref) << "simple random replay k=" << k << " n=" << n
                             << " population=" << population;
      }
    }
  }
}

}  // namespace
}  // namespace netsample

#pragma GCC diagnostic pop
