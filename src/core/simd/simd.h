// Runtime-dispatched SIMD kernels for the fused sweep hot path.
//
// The paper's two targets have <= 5 fixed bin boundaries, so the per-packet
// work of the sweep engine — classify a value into a bin, bump a counter,
// draw one bounded uniform per stratum — is a textbook compare-mask ladder.
// This header is the dispatch seam: a small table of kernel entry points,
// selected at runtime from the CPU (cpuid AVX2 on x86-64, NEON on aarch64)
// and overridable for tests, benches, and CI:
//
//   NETSAMPLE_SIMD=scalar|avx2|neon   environment override
//   --simd VARIANT                    CLI/bench flag (tools/cli_args)
//   force_variant()                   programmatic override (wins over env)
//
// Contract: every variant is BIT-IDENTICAL to the scalar reference — same
// selected indices (the kernels replay the streaming samplers' RNG draw
// sequences raw-word-for-raw-word), same integer histogram counts, hence
// the same phi/chi-squared to the last bit. "Close" is a bug; the
// differential suite in tests/test_simd_kernels.cpp and the full-grid
// identity tests enforce exactness. The scalar path (the scalar ladder in
// bin_ladders.cpp and the cursors in select_indices.cpp) remains the
// reference, and the streaming samplers remain the oracle underneath both.
//
// A requested variant that is not compiled in or not supported by the CPU
// falls back to scalar (never to a different vector ISA), so forcing
// "neon" on x86 is safe and deterministic.
//
// This header and the simd/*.cpp translation units are deliberately
// self-contained (util/rng.h is their only project include) so the CI
// NEON leg can cross-compile them standalone with just -Isrc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace netsample::core::simd {

enum class Variant {
  kScalar,  // reference implementation, always available
  kAvx2,    // x86-64 AVX2 compare-mask / gather kernels
  kNeon,    // aarch64 NEON compare-mask kernels
};

/// "scalar" / "avx2" / "neon" — the vocabulary of NETSAMPLE_SIMD and --simd.
[[nodiscard]] const char* variant_name(Variant v);

/// Parse a variant name; std::nullopt for anything else (including "").
[[nodiscard]] std::optional<Variant> parse_variant(std::string_view name);

/// Was this variant's kernel set compiled into the binary?
[[nodiscard]] bool variant_compiled(Variant v);

/// Compiled in AND supported by the running CPU.
[[nodiscard]] bool variant_available(Variant v);

/// The best available variant on this machine (scalar when nothing better).
[[nodiscard]] Variant best_variant();

/// The variant the dispatch table serves right now:
/// force_variant() override > NETSAMPLE_SIMD env (read once) > best_variant().
/// A requested-but-unavailable variant resolves to kScalar.
[[nodiscard]] Variant active_variant();

/// Programmatic override (the --simd flag and the A/B bench harness).
void force_variant(Variant v);

/// Drop the programmatic override, restoring the environment default.
void clear_variant_override();

/// Best variant's name for machine-class reporting ("avx2"/"neon"/"scalar").
[[nodiscard]] std::string cpu_feature_string();

/// Maximum compare-ladder depth the classify kernels support. The paper
/// targets need 2 (size) and 4 (interarrival); callers with more thresholds
/// must stay on the scalar path.
inline constexpr std::size_t kMaxThresholds = 8;

/// Kernel entry points for one variant. Null entries mean "no vectorized
/// implementation — use the scalar caller path". The scalar table is
/// all-null by design: scalar code lives at the call sites, untouched, as
/// the bit-exact reference.
struct KernelTable {
  /// out[i] = #{ t < n_thresholds : values[i] >= thresholds[t] } — the bin
  /// index under stats::Histogram's lower-bound-edge semantics, given the
  /// integer thresholds from integer_thresholds_u32(). Thresholds ascending,
  /// n_thresholds <= kMaxThresholds.
  void (*classify_u32)(const std::uint32_t* values, std::size_t n,
                       const std::uint32_t* thresholds,
                       std::size_t n_thresholds, std::uint8_t* out){nullptr};

  /// Fused gap-compute + classify over a timestamp array: out[0] = 0 (no
  /// predecessor), out[i] = ladder(ts[i] - ts[i-1]) for i >= 1. Timestamps
  /// must be non-decreasing and < 2^63.
  void (*classify_gaps_u64)(const std::uint64_t* ts, std::size_t n,
                            const std::uint64_t* thresholds,
                            std::size_t n_thresholds,
                            std::uint8_t* out){nullptr};

  /// counts[bins[indices[j]]]++ for j in [0, n_indices) — the sample-
  /// histogram gather/accumulate. `bins` is pre-offset to the view start;
  /// when skip_rel0 is set, entries with indices[j] == 0 contribute nothing
  /// (the view's first packet has no predecessor gap). Requires
  /// n_bins < 255 and every bin id < n_bins.
  void (*accumulate_u8)(const std::uint8_t* bins, const std::size_t* indices,
                        std::size_t n_indices, bool skip_rel0,
                        std::uint64_t* counts, std::size_t n_bins){nullptr};

  /// Batched stratified/count kernel: one uniform_below(k) winner per
  /// k-packet bucket over n offered packets, replaying Rng(seed) exactly.
  /// Returns false to decline (e.g. k >= 2^32); caller falls back to
  /// scalar. On true, *out holds exactly the scalar kernel's indices.
  bool (*stratified_count)(std::uint64_t k, std::uint64_t seed,
                           std::uint64_t n,
                           std::vector<std::size_t>* out){nullptr};

  /// Batched Algorithm S: select `pick` of `population`, scanning at most
  /// `limit` packets, replaying Rng(seed) exactly. Returns false to
  /// decline (population >= 2^32).
  bool (*simple_random)(std::uint64_t pick, std::uint64_t population,
                        std::uint64_t limit, std::uint64_t seed,
                        std::vector<std::size_t>* out){nullptr};
};

/// The table for a specific variant (empty/all-null when unavailable).
[[nodiscard]] const KernelTable& kernels_for(Variant v);

/// The table for active_variant(). Call sites test entries for null and
/// fall back to their scalar code.
[[nodiscard]] const KernelTable& kernels();

/// Convert histogram edges (doubles, lower bounds of the bin to their
/// right) into integer thresholds such that, for any integer value v,
///   #{ t : v >= threshold[t] }  ==  Histogram(edges).bin_index(v).
/// Returns std::nullopt when an edge cannot be represented exactly
/// (negative, non-finite, or >= 2^63) — callers must then stay scalar.
[[nodiscard]] std::optional<std::vector<std::uint64_t>> integer_thresholds(
    std::span<const double> edges);

/// Same, narrowed to u32 for the packet-size ladder; std::nullopt when any
/// threshold exceeds 2^32 - 1.
[[nodiscard]] std::optional<std::vector<std::uint32_t>> integer_thresholds_u32(
    std::span<const double> edges);

}  // namespace netsample::core::simd
