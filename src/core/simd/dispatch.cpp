#include "core/simd/simd.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace netsample::core::simd {

// Defined in kernels_avx2.cpp / kernels_neon.cpp; each returns an all-null
// table when its ISA is not compiled in.
const KernelTable& avx2_kernel_table();
const KernelTable& neon_kernel_table();
bool avx2_compiled();
bool neon_compiled();

namespace {

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_neon() {
#if defined(__aarch64__)
  // Advanced SIMD is architecturally mandatory on AArch64.
  return true;
#else
  return false;
#endif
}

/// NETSAMPLE_SIMD, read once and cached for the process. Empty or unset
/// means "no preference"; an unknown value warns once and is ignored rather
/// than silently changing results.
std::optional<Variant> env_variant() {
  static const std::optional<Variant> value = [] {
    const char* e = std::getenv("NETSAMPLE_SIMD");
    if (e == nullptr || *e == '\0') return std::optional<Variant>{};
    const auto parsed = parse_variant(e);
    if (!parsed.has_value()) {
      std::fprintf(stderr,
                   "netsample: NETSAMPLE_SIMD=\"%s\" is not one of "
                   "scalar|avx2|neon; using the best available variant\n",
                   e);
    }
    return parsed;
  }();
  return value;
}

// -1 = no override (follow the environment / autodetect).
std::atomic<int> g_variant_override{-1};

Variant resolve(Variant requested) {
  return variant_available(requested) ? requested : Variant::kScalar;
}

}  // namespace

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kAvx2:
      return "avx2";
    case Variant::kNeon:
      return "neon";
    case Variant::kScalar:
    default:
      return "scalar";
  }
}

std::optional<Variant> parse_variant(std::string_view name) {
  if (name == "scalar") return Variant::kScalar;
  if (name == "avx2") return Variant::kAvx2;
  if (name == "neon") return Variant::kNeon;
  return std::nullopt;
}

bool variant_compiled(Variant v) {
  switch (v) {
    case Variant::kAvx2:
      return avx2_compiled();
    case Variant::kNeon:
      return neon_compiled();
    case Variant::kScalar:
    default:
      return true;
  }
}

bool variant_available(Variant v) {
  switch (v) {
    case Variant::kAvx2:
      return avx2_compiled() && cpu_has_avx2();
    case Variant::kNeon:
      return neon_compiled() && cpu_has_neon();
    case Variant::kScalar:
    default:
      return true;
  }
}

Variant best_variant() {
  static const Variant value = [] {
    if (variant_available(Variant::kAvx2)) return Variant::kAvx2;
    if (variant_available(Variant::kNeon)) return Variant::kNeon;
    return Variant::kScalar;
  }();
  return value;
}

Variant active_variant() {
  const int o = g_variant_override.load(std::memory_order_relaxed);
  if (o >= 0) return resolve(static_cast<Variant>(o));
  if (const auto env = env_variant(); env.has_value()) return resolve(*env);
  return best_variant();
}

void force_variant(Variant v) {
  g_variant_override.store(static_cast<int>(v), std::memory_order_relaxed);
}

void clear_variant_override() {
  g_variant_override.store(-1, std::memory_order_relaxed);
}

std::string cpu_feature_string() { return variant_name(best_variant()); }

const KernelTable& kernels_for(Variant v) {
  static const KernelTable scalar{};  // all null: scalar code lives at call sites
  switch (v) {
    case Variant::kAvx2:
      if (variant_available(Variant::kAvx2)) return avx2_kernel_table();
      return scalar;
    case Variant::kNeon:
      if (variant_available(Variant::kNeon)) return neon_kernel_table();
      return scalar;
    case Variant::kScalar:
    default:
      return scalar;
  }
}

const KernelTable& kernels() { return kernels_for(active_variant()); }

std::optional<std::vector<std::uint64_t>> integer_thresholds(
    std::span<const double> edges) {
  std::vector<std::uint64_t> out;
  out.reserve(edges.size());
  std::uint64_t prev = 0;
  for (const double e : edges) {
    // For integer v: v >= e  <=>  v >= ceil(e). Anything not exactly
    // representable as a u64 threshold below 2^63 disqualifies the ladder.
    if (!std::isfinite(e) || e < 0.0 || e >= 9.2233720368547758e18) {
      return std::nullopt;
    }
    const double c = std::ceil(e);
    const auto t = static_cast<std::uint64_t>(c);
    if (static_cast<double>(t) != c) return std::nullopt;
    if (!out.empty() && t < prev) return std::nullopt;
    out.push_back(t);
    prev = t;
  }
  return out;
}

std::optional<std::vector<std::uint32_t>> integer_thresholds_u32(
    std::span<const double> edges) {
  const auto wide = integer_thresholds(edges);
  if (!wide.has_value()) return std::nullopt;
  std::vector<std::uint32_t> out;
  out.reserve(wide->size());
  for (const std::uint64_t t : *wide) {
    if (t > 0xFFFFFFFFull) return std::nullopt;
    out.push_back(static_cast<std::uint32_t>(t));
  }
  return out;
}

}  // namespace netsample::core::simd
