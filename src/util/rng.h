// Deterministic, splittable pseudo-random number generation.
//
// All stochastic components of the library (synthetic traffic generation,
// stratified/simple random sampling, replication seeds) draw from this one
// generator so that every experiment is exactly reproducible from a single
// 64-bit seed. We implement xoshiro256** (Blackman & Vigna) with SplitMix64
// seeding rather than relying on std::mt19937 so that the bit streams are
// stable across standard library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>

namespace netsample {

/// SplitMix64's finalizer: a full-avalanche 64-bit mixer (every input bit
/// affects every output bit). The building block of derive_seed().
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Hash an ordered tuple of 64-bit words into one well-mixed seed.
///
/// This is how every parallel component derives per-task RNG seeds: mix the
/// experiment's base seed with the task's logical coordinates (method,
/// granularity, interval index, ...) instead of drawing seeds from a shared
/// sequential generator. Seeds then depend only on *what* the task is, never
/// on which thread runs it or in what order, so results are bit-identical
/// at any --jobs level. The chain absorbs each word with the golden-gamma
/// increment before re-mixing (splitmix-style), so permuted or zero-valued
/// coordinates still land on unrelated streams.
[[nodiscard]] constexpr std::uint64_t derive_seed(
    std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const std::uint64_t w : words) {
    h = mix64(h + 0x9E3779B97F4A7C15ULL + w);
  }
  return h;
}

/// SplitMix64: used to expand a single 64-bit seed into generator state and
/// to derive independent child seeds (Vigna's recommended seeding scheme).
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

namespace detail {
struct RngState;
}  // namespace detail

/// xoshiro256** 1.0 — fast, high-quality 64-bit generator.
/// Satisfies the C++ UniformRandomBitGenerator requirements.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  constexpr explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independently-seeded child generator. Used to give each
  /// replication / each flow its own stream without coupling.
  [[nodiscard]] Rng split() { return Rng((*this)()); }

  /// Uniform integer in [0, bound). Lemire's unbiased multiply-shift method:
  /// a word is rejected when the product's low word falls below
  /// 2^64 mod bound. That threshold is below `bound`, so it is computed
  /// (one division) only for the rare word whose low word is below `bound`;
  /// the draws are those of testing every word against it.
  [[nodiscard]] std::uint64_t uniform_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    Wide m = static_cast<Wide>((*this)()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) [[unlikely]] {
      const std::uint64_t threshold = (-bound) % bound;
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = static_cast<Wide>((*this)()) * bound;
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t uniform_in(std::uint64_t lo, std::uint64_t hi) {
    return lo + uniform_below(hi - lo + 1);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform01();
  }

  /// Exponentially distributed double with the given mean (> 0).
  [[nodiscard]] double exponential(double mean);

  /// Standard normal deviate (Marsaglia polar method).
  [[nodiscard]] double normal();

  /// Normal deviate with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Log-normal deviate parameterized by the *underlying* normal's mu/sigma.
  [[nodiscard]] double lognormal(double mu, double sigma);

  /// Pareto deviate with scale xm > 0 and shape alpha > 0.
  [[nodiscard]] double pareto(double xm, double alpha);

  /// Geometric number of failures before first success, success prob p in (0,1].
  [[nodiscard]] std::uint64_t geometric(double p);

  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p) { return uniform01() < p; }

 private:
  friend struct detail::RngState;

  // The 128-bit product of Lemire's method (a GCC/Clang extension, so
  // -Wpedantic consumers of this header stay quiet).
  __extension__ typedef unsigned __int128 Wide;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_cached_normal_{false};
  double cached_normal_{0.0};
};

namespace detail {

/// Internal (docs/API.md): a generator's raw 256-bit xoshiro256** state,
/// which the batched SIMD kernels' jump-ahead lanes start from and replay
/// from (core/simd/lanes.h).
struct RngState {
  using Words = std::array<std::uint64_t, 4>;

  [[nodiscard]] static constexpr Words of(const Rng& rng) {
    return rng.state_;
  }

  /// The generator whose next word is the one a generator in `words`
  /// would return next: of() round-trips through it.
  [[nodiscard]] static constexpr Rng resume(const Words& words) {
    Rng rng;
    rng.state_ = words;
    return rng;
  }
};

}  // namespace detail
}  // namespace netsample
