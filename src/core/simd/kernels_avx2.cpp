// AVX2 kernels for the fused sweep hot path. Compiled on x86-64 only; the
// functions carry target("avx2") attributes so the TU itself needs no
// -mavx2 flag, and the dispatch layer never calls them unless cpuid says
// the CPU supports AVX2.
//
// Bit-exactness notes, per kernel:
//
//   classify ladders   integer compare against integer_thresholds(), which
//                      is provably equivalent to Histogram::bin_index on
//                      integer inputs (see simd.h). Unsigned compares are
//                      done as signed compares after biasing both sides by
//                      the sign bit.
//   accumulate         per-bin cmpeq + popcount over 32-byte chunks; pure
//                      integer counting, order-independent.
//   batched samplers   draw from the four-lane block source (lanes.h):
//                      each lane runs xoshiro256** over its own quarter of
//                      a block and vectorizes Lemire's multiply (bounds
//                      < 2^32, so the 128-bit product decomposes into two
//                      32x32 halves). A block in which some offered word
//                      might be rejected (low64 < bound) is replayed from
//                      its start state through the scalar
//                      Rng::uniform_below, so the words consumed, and every
//                      selected index, are the scalar ones.
#include "core/simd/simd.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cassert>

#include "core/simd/lanes.h"

#define NETSAMPLE_TARGET_AVX2 __attribute__((target("avx2")))

namespace netsample::core::simd {

namespace {

using RngState = ::netsample::detail::RngState;

NETSAMPLE_TARGET_AVX2
void classify_u32_avx2(const std::uint32_t* values, std::size_t n,
                       const std::uint32_t* thresholds,
                       std::size_t n_thresholds, std::uint8_t* out) {
  assert(n_thresholds <= kMaxThresholds);
  // v >= t  <=>  v > t - 1 (strict cmpgt is all AVX2 has); t == 0 passes
  // every value, folded into a constant.
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  __m256i ladder[kMaxThresholds];
  int always = 0;
  std::size_t lanes = 0;
  for (std::size_t t = 0; t < n_thresholds; ++t) {
    if (thresholds[t] == 0) {
      ++always;
    } else {
      ladder[lanes++] = _mm256_xor_si256(
          _mm256_set1_epi32(static_cast<int>(thresholds[t] - 1)), bias);
    }
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i)),
        bias);
    __m256i acc = _mm256_set1_epi32(always);
    for (std::size_t t = 0; t < lanes; ++t) {
      acc = _mm256_sub_epi32(acc, _mm256_cmpgt_epi32(x, ladder[t]));
    }
    alignas(32) std::uint32_t tmp[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc);
    for (int j = 0; j < 8; ++j) {
      out[i + static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(tmp[j]);
    }
  }
  for (; i < n; ++i) {
    unsigned b = 0;
    for (std::size_t t = 0; t < n_thresholds; ++t) {
      b += values[i] >= thresholds[t] ? 1u : 0u;
    }
    out[i] = static_cast<std::uint8_t>(b);
  }
}

NETSAMPLE_TARGET_AVX2
void classify_gaps_u64_avx2(const std::uint64_t* ts, std::size_t n,
                            const std::uint64_t* thresholds,
                            std::size_t n_thresholds, std::uint8_t* out) {
  assert(n_thresholds <= kMaxThresholds);
  if (n == 0) return;
  out[0] = 0;  // the first packet has no predecessor gap
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  __m256i ladder[kMaxThresholds];
  long long always = 0;
  std::size_t lanes = 0;
  for (std::size_t t = 0; t < n_thresholds; ++t) {
    if (thresholds[t] == 0) {
      ++always;
    } else {
      ladder[lanes++] = _mm256_xor_si256(
          _mm256_set1_epi64x(static_cast<long long>(thresholds[t] - 1)), bias);
    }
  }
  std::size_t i = 1;
  for (; i + 4 <= n; i += 4) {
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ts + i));
    const __m256i prev =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ts + i - 1));
    const __m256i x =
        _mm256_xor_si256(_mm256_sub_epi64(cur, prev), bias);
    __m256i acc = _mm256_set1_epi64x(always);
    for (std::size_t t = 0; t < lanes; ++t) {
      acc = _mm256_sub_epi64(acc, _mm256_cmpgt_epi64(x, ladder[t]));
    }
    alignas(32) std::uint64_t tmp[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc);
    for (int j = 0; j < 4; ++j) {
      out[i + static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(tmp[j]);
    }
  }
  for (; i < n; ++i) {
    const std::uint64_t gap = ts[i] - ts[i - 1];
    unsigned b = 0;
    for (std::size_t t = 0; t < n_thresholds; ++t) {
      b += gap >= thresholds[t] ? 1u : 0u;
    }
    out[i] = static_cast<std::uint8_t>(b);
  }
}

NETSAMPLE_TARGET_AVX2
void accumulate_u8_avx2(const std::uint8_t* bins, const std::size_t* indices,
                        std::size_t n_indices, bool skip_rel0,
                        std::uint64_t* counts, std::size_t n_bins) {
  assert(n_bins < 255);
  std::size_t i = 0;
  alignas(32) std::uint8_t gathered[32];
  for (; i + 32 <= n_indices; i += 32) {
    // Byte gather (scalar loads — AVX2 has no byte gather, and a 32-bit
    // gather would read past the end of the bin array at the last indices),
    // then branch-free per-bin population counts. 0xFF is the "contributes
    // nothing" sentinel; it can never equal a bin id since n_bins < 255.
    for (int j = 0; j < 32; ++j) {
      const std::size_t rel = indices[i + static_cast<std::size_t>(j)];
      gathered[j] =
          (skip_rel0 && rel == 0) ? std::uint8_t{0xFF} : bins[rel];
    }
    const __m256i g =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(gathered));
    for (std::size_t b = 0; b < n_bins; ++b) {
      const __m256i eq =
          _mm256_cmpeq_epi8(g, _mm256_set1_epi8(static_cast<char>(b)));
      counts[b] += static_cast<unsigned>(__builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_epi8(eq))));
    }
  }
  for (; i < n_indices; ++i) {
    const std::size_t rel = indices[i];
    if (skip_rel0 && rel == 0) continue;
    ++counts[bins[rel]];
  }
}

/// Lemire's sample (r * b) >> 64 per lane, for bounds b < 2^32, from two
/// 32x32 products: r * b = (high32(r)*b + (low32(r)*b >> 32)) * 2^32 +
/// low32(low32(r)*b). A word can be rejected only when the low 64 bits of
/// r * b fall below b < 2^32, so only when their upper half, the low 32
/// bits of that sum, is zero (one word in 2^32): *maybe_reject gets the low
/// dword of such lanes set.
NETSAMPLE_TARGET_AVX2
inline __m256i lemire_sample(__m256i r, __m256i b, __m256i* maybe_reject) {
  const __m256i p1 = _mm256_mul_epu32(r, b);
  const __m256i p2 = _mm256_mul_epu32(_mm256_srli_epi64(r, 32), b);
  const __m256i sum = _mm256_add_epi64(p2, _mm256_srli_epi64(p1, 32));
  *maybe_reject = _mm256_cmpeq_epi32(sum, _mm256_setzero_si256());
  return _mm256_srli_epi64(sum, 32);
}

/// Did any lemire_sample() of the block flag a possible rejection?
NETSAMPLE_TARGET_AVX2
inline bool any_reject(__m256i maybe_reject) {
  return _mm256_testz_si256(maybe_reject,
                            _mm256_set1_epi64x(0xFFFFFFFFll)) == 0;
}

/// Four lane values, lane 0 first.
NETSAMPLE_TARGET_AVX2
inline __m256i lanes_of(std::uint64_t v0, std::uint64_t v1, std::uint64_t v2,
                        std::uint64_t v3) {
  return _mm256_set_epi64x(static_cast<long long>(v3),
                           static_cast<long long>(v2),
                           static_cast<long long>(v1),
                           static_cast<long long>(v0));
}

/// xoshiro256** in four AVX2 lanes: word i of the state in s_i, one
/// generator per 64-bit lane.
struct LaneState {
  __m256i s0, s1, s2, s3;
};

template <int K>
NETSAMPLE_TARGET_AVX2 inline __m256i rotl64(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K),
                         _mm256_srli_epi64(x, 64 - K));
}

/// Rng::operator() in every lane: returns the four output words and steps
/// the states. The multiplies by 5 and 9 are shift-adds (AVX2 has no 64-bit
/// multiply).
NETSAMPLE_TARGET_AVX2
inline __m256i lane_step(LaneState* l) {
  const __m256i x5 = _mm256_add_epi64(l->s1, _mm256_slli_epi64(l->s1, 2));
  const __m256i r = rotl64<7>(x5);
  const __m256i out = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
  const __m256i t = _mm256_slli_epi64(l->s1, 17);
  l->s2 = _mm256_xor_si256(l->s2, l->s0);
  l->s3 = _mm256_xor_si256(l->s3, l->s1);
  l->s1 = _mm256_xor_si256(l->s1, l->s2);
  l->s0 = _mm256_xor_si256(l->s0, l->s3);
  l->s2 = _mm256_xor_si256(l->s2, t);
  l->s3 = rotl64<45>(l->s3);
  return out;
}

/// The lanes of the block that starts at `start`: lane j is `start` jumped
/// j * kLaneWords words ahead (lanes.h). The three jumps run as one 256-step
/// jump() loop over four lanes, lane 0's constant being x^0 = 1.
NETSAMPLE_TARGET_AVX2
inline LaneState lanes_at(const RngState::Words& start) {
  LaneState x{_mm256_set1_epi64x(static_cast<long long>(start[0])),
              _mm256_set1_epi64x(static_cast<long long>(start[1])),
              _mm256_set1_epi64x(static_cast<long long>(start[2])),
              _mm256_set1_epi64x(static_cast<long long>(start[3]))};
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  LaneState acc{zero, zero, zero, zero};
  for (std::size_t w = 0; w < 4; ++w) {
    __m256i c = lanes_of(w == 0 ? 1 : 0, kLaneJumps[0][w], kLaneJumps[1][w],
                         kLaneJumps[2][w]);
    for (int b = 0; b < 64; ++b) {
      const __m256i take = _mm256_sub_epi64(zero, _mm256_and_si256(c, one));
      acc.s0 = _mm256_xor_si256(acc.s0, _mm256_and_si256(x.s0, take));
      acc.s1 = _mm256_xor_si256(acc.s1, _mm256_and_si256(x.s1, take));
      acc.s2 = _mm256_xor_si256(acc.s2, _mm256_and_si256(x.s2, take));
      acc.s3 = _mm256_xor_si256(acc.s3, _mm256_and_si256(x.s3, take));
      c = _mm256_srli_epi64(c, 1);
      (void)lane_step(&x);
    }
  }
  return acc;
}

/// Lane 3's state. After kLaneWords steps it is where the next block starts.
NETSAMPLE_TARGET_AVX2
inline RngState::Words lane3(const LaneState& l) {
  return {static_cast<std::uint64_t>(_mm256_extract_epi64(l.s0, 3)),
          static_cast<std::uint64_t>(_mm256_extract_epi64(l.s1, 3)),
          static_cast<std::uint64_t>(_mm256_extract_epi64(l.s2, 3)),
          static_cast<std::uint64_t>(_mm256_extract_epi64(l.s3, 3))};
}

constexpr std::size_t kBlock = 4 * kLaneWords;
constexpr std::size_t kGroup = 64;  // steps per candidate-filter summary

// Both kernels walk the pass in blocks of kBlock draws. A block that fits
// in one lane (at most kLaneWords draws, so only a pass's short last block)
// runs scalar from the block's start state, as does a block in which
// lemire_sample() flagged a possible rejection: the scalar Rng then
// consumes exactly the words the streaming sampler would, and the next
// block starts where it stopped. Otherwise the next block starts where
// lane 3 stopped.

/// Bucket b's winner is b*k + uniform_below(k): the vector pass writes each
/// lane's winners straight into *out.
NETSAMPLE_TARGET_AVX2
bool stratified_count_lanes(std::uint64_t k, std::uint64_t seed,
                            std::uint64_t n, std::vector<std::size_t>* out,
                            bool replay_all) {
  if (k == 0 || k > 0xFFFFFFFFull) return false;
  const std::uint64_t buckets = n / k + (n % k != 0 ? 1 : 0);
  out->clear();
  out->resize(static_cast<std::size_t>(buckets));
  std::size_t* const dst = out->data();
  const __m256i vk = _mm256_set1_epi64x(static_cast<long long>(k));
  RngState::Words start = RngState::of(Rng(seed));
  for (std::uint64_t base = 0; base < buckets; base += kBlock) {
    const std::uint64_t m = std::min<std::uint64_t>(kBlock, buckets - base);
    bool scalar = m <= kLaneWords;
    LaneState lanes;
    if (!scalar) {
      lanes = lanes_at(start);
      // Lane j's bucket at step s opens at packet (base + j*B + s) * k.
      __m256i open = lanes_of(base * k, (base + kLaneWords) * k,
                              (base + 2 * kLaneWords) * k,
                              (base + 3 * kLaneWords) * k);
      __m256i reject = _mm256_setzero_si256();
      alignas(32) std::uint64_t win[4];
      for (std::uint64_t s = 0; s < kLaneWords; ++s) {
        __m256i maybe;
        const __m256i hi = lemire_sample(lane_step(&lanes), vk, &maybe);
        reject = _mm256_or_si256(reject, maybe);
        _mm256_store_si256(reinterpret_cast<__m256i*>(win),
                           _mm256_add_epi64(open, hi));
        open = _mm256_add_epi64(open, vk);
        for (std::uint64_t j = 0; j < 4 && j * kLaneWords + s < m; ++j) {
          dst[base + j * kLaneWords + s] = static_cast<std::size_t>(win[j]);
        }
      }
      scalar = replay_all || any_reject(reject);
    }
    if (scalar) {
      Rng rng = RngState::resume(start);
      for (std::uint64_t b = base; b < base + m; ++b) {
        dst[b] = static_cast<std::size_t>(b * k + rng.uniform_below(k));
      }
      start = RngState::of(rng);
    } else {
      start = lane3(lanes);
    }
  }
  // The last bucket may be cut short by the end of the pass; its winner
  // counts only when it falls inside.
  if (buckets != 0 && dst[buckets - 1] >= n) out->pop_back();
  return true;
}

/// Algorithm S over lane blocks, written as t -= (sample < t) with
/// t = pick - selected: every scanned position is stored at dst[pick - t],
/// and the next acceptance overwrites it unless this one was accepted.
/// The vector pass keeps every position's Lemire sample (below its bound,
/// so below 2^32) and marks each 64-step group in which some lane's sample
/// is below the block's starting t. t only shrinks within a block, so no
/// acceptance lies outside a marked group; the scalar pass walks the marked
/// groups in position order against the current t.
NETSAMPLE_TARGET_AVX2
bool simple_random_lanes(std::uint64_t pick, std::uint64_t population,
                         std::uint64_t limit, std::uint64_t seed,
                         std::vector<std::size_t>* out, bool replay_all) {
  if (population == 0 || population > 0xFFFFFFFFull) return false;
  // One slot past a full sample for the stores made once t reaches 0.
  out->clear();
  out->resize(static_cast<std::size_t>(pick) + 1);
  std::size_t* const dst = out->data();
  alignas(16) std::uint32_t samples[kBlock];  // step-major: [4 * s + lane]
  std::uint8_t marked[kLaneWords / kGroup];   // lane bits per group
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i low_halves = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  RngState::Words start = RngState::of(Rng(seed));
  std::uint64_t t = pick;
  for (std::uint64_t base = 0; base < limit && t != 0; base += kBlock) {
    const std::uint64_t m = std::min<std::uint64_t>(kBlock, limit - base);
    bool scalar = m <= kLaneWords;
    LaneState lanes;
    if (!scalar) {
      lanes = lanes_at(start);
      // Position p's bound is population - p. In a pass's last block, lanes
      // run past the limit: their samples are never read, and their
      // rejection flags (the bound reaches 0 at the population, then wraps
      // negative) are masked by p < limit, i.e. bound > population - limit.
      const std::uint64_t b0 = population - base;
      __m256i bound = lanes_of(b0, b0 - kLaneWords, b0 - 2 * kLaneWords,
                               b0 - 3 * kLaneWords);
      const bool last = m < kBlock;
      const __m256i unoffered =
          _mm256_set1_epi64x(static_cast<long long>(population - limit));
      const __m256i t_block = _mm256_set1_epi64x(static_cast<long long>(t));
      __m256i reject = _mm256_setzero_si256();
      for (std::uint64_t g = 0; g < kLaneWords / kGroup; ++g) {
        __m256i hit = _mm256_setzero_si256();
        for (std::uint64_t s = g * kGroup; s < (g + 1) * kGroup; ++s) {
          __m256i maybe;
          const __m256i hi = lemire_sample(lane_step(&lanes), bound, &maybe);
          if (last) {
            maybe = _mm256_and_si256(maybe,
                                     _mm256_cmpgt_epi64(bound, unoffered));
          }
          reject = _mm256_or_si256(reject, maybe);
          hit = _mm256_or_si256(hit, _mm256_cmpgt_epi64(t_block, hi));
          _mm_store_si128(reinterpret_cast<__m128i*>(samples + 4 * s),
                          _mm256_castsi256_si128(
                              _mm256_permutevar8x32_epi32(hi, low_halves)));
          bound = _mm256_sub_epi64(bound, one);
        }
        marked[g] = static_cast<std::uint8_t>(
            _mm256_movemask_pd(_mm256_castsi256_pd(hit)));
      }
      scalar = replay_all || any_reject(reject);
    }
    if (scalar) {
      Rng rng = RngState::resume(start);
      for (std::uint64_t i = base; i < base + m && t != 0; ++i) {
        dst[pick - t] = static_cast<std::size_t>(i);
        t -= rng.uniform_below(population - i) < t;
      }
      start = RngState::of(rng);
      continue;
    }
    for (std::uint64_t j = 0; j < 4 && t != 0; ++j) {
      const std::uint64_t first = base + j * kLaneWords;
      const std::uint64_t len =
          first < limit ? std::min<std::uint64_t>(kLaneWords, limit - first)
                        : 0;
      for (std::uint64_t g = 0; g * kGroup < len; ++g) {
        if ((marked[g] >> j & 1u) == 0) continue;
        const std::uint64_t end = std::min<std::uint64_t>(len, (g + 1) * kGroup);
        for (std::uint64_t s = g * kGroup; s < end; ++s) {
          dst[pick - t] = static_cast<std::size_t>(first + s);
          t -= samples[4 * s + j] < t;
        }
      }
    }
    start = lane3(lanes);
  }
  out->resize(static_cast<std::size_t>(pick - t));
  return true;
}

NETSAMPLE_TARGET_AVX2
void lane_words_avx2(std::uint64_t seed, std::span<std::uint64_t> out) {
  RngState::Words start = RngState::of(Rng(seed));
  alignas(32) std::uint64_t w[4];
  for (std::size_t base = 0; base < out.size(); base += kBlock) {
    LaneState lanes = lanes_at(start);
    for (std::size_t s = 0; s < kLaneWords; ++s) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(w), lane_step(&lanes));
      for (std::size_t j = 0; j < 4; ++j) {
        const std::size_t i = base + j * kLaneWords + s;
        if (i < out.size()) out[i] = w[j];
      }
    }
    start = lane3(lanes);
  }
}

/// The batched samplers' table entries; `replay_all` is the test seam.
template <bool replay_all>
void set_lane_samplers(KernelTable* t) {
  t->stratified_count = [](std::uint64_t k, std::uint64_t seed,
                           std::uint64_t n, std::vector<std::size_t>* out) {
    return stratified_count_lanes(k, seed, n, out, replay_all);
  };
  t->simple_random = [](std::uint64_t pick, std::uint64_t population,
                        std::uint64_t limit, std::uint64_t seed,
                        std::vector<std::size_t>* out) {
    return simple_random_lanes(pick, population, limit, seed, out,
                               replay_all);
  };
}

}  // namespace

bool avx2_compiled() { return true; }

bool avx2_lane_words(std::uint64_t seed, std::span<std::uint64_t> out) {
  if (!variant_available(Variant::kAvx2)) return false;
  lane_words_avx2(seed, out);
  return true;
}

const KernelTable& avx2_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.classify_u32 = &classify_u32_avx2;
    t.classify_gaps_u64 = &classify_gaps_u64_avx2;
    t.accumulate_u8 = &accumulate_u8_avx2;
    set_lane_samplers<false>(&t);
    return t;
  }();
  return table;
}

const KernelTable& avx2_replay_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t;
    set_lane_samplers<true>(&t);
    return t;
  }();
  return table;
}

}  // namespace netsample::core::simd

#else  // !x86-64

#include "core/simd/lanes.h"

namespace netsample::core::simd {

bool avx2_compiled() { return false; }

const KernelTable& avx2_kernel_table() {
  static const KernelTable table{};
  return table;
}

bool avx2_lane_words(std::uint64_t, std::span<std::uint64_t>) {
  return false;
}

const KernelTable& avx2_replay_kernel_table() { return avx2_kernel_table(); }

}  // namespace netsample::core::simd

#endif
