// Shared scaffolding for the figure/table reproduction binaries.
//
// Every binary prints (a) a banner naming the paper artifact it regenerates,
// (b) the paper's reported values where the paper gives them, and (c) our
// measured values, as an aligned table plus `CSV,`-prefixed lines that a
// plotting script can grep out.
//
// The six headline figure binaries (fig06–fig11) parse their flags through
// tools/cli_args.h — strict vocabulary, unknown flags exit 64. The helpers
// below stay for the table/ablation binaries and the google-benchmark
// micro benches, which must pass --benchmark_* flags through untouched.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "netsample/netsample.h"

namespace netsample::bench {

/// Default experiment context: the calibrated synthetic SDSC hour.
/// Seed 23 everywhere makes every bench reproducible run-to-run.
inline constexpr std::uint64_t kDefaultSeed = 23;

/// Strictly parse a worker count. atoi-style silent coercion ("abc" -> 0,
/// "4x" -> 4) would quietly turn a typo into "one worker per hardware
/// thread"; a bad value aborts with a clear message instead.
inline int parse_jobs(const char* source, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 0 || v > 4096) {
    std::fprintf(stderr,
                 "error: %s: expected a worker count in [0, 4096] "
                 "(0 = one per hardware thread), got \"%s\"\n",
                 source, text);
    std::exit(2);
  }
  return static_cast<int>(v);
}

/// Worker count for the figure sweeps: `--jobs N` beats the NETSAMPLE_JOBS
/// environment variable beats 0 (= one worker per hardware thread). Any
/// value produces bit-identical figures — seeds derive from grid
/// coordinates, not from scheduling (see docs/PARALLELISM.md).
inline int bench_jobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--jobs") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --jobs requires a value\n");
        std::exit(2);
      }
      return parse_jobs("--jobs", argv[i + 1]);
    }
  }
  if (const char* env = std::getenv("NETSAMPLE_JOBS")) {
    return parse_jobs("NETSAMPLE_JOBS", env);
  }
  return 0;
}

/// Experiment context for a figure binary: `--pcap FILE` (or NETSAMPLE_PCAP)
/// regenerates the figure from a real capture instead of the synthetic hour.
/// Real captures are read in salvage mode, and any data loss — corrupt
/// records skipped, bytes discarded while resyncing, a torn trailing record
/// — is printed with the figure so a damaged input is never silently folded
/// into the numbers. Exits 65 (data loss under strict parsing is the only
/// way this read fails beyond I/O) on an unreadable capture.
inline exper::Experiment bench_experiment(int argc, char** argv,
                                          std::uint64_t seed = kDefaultSeed,
                                          double minutes = 60.0) {
  std::string path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--pcap") path = argv[i + 1];
  }
  if (path.empty()) {
    if (const char* env = std::getenv("NETSAMPLE_PCAP")) path = env;
  }
  if (path.empty()) return exper::Experiment(seed, minutes);

  pcap::ParseOptions options;
  options.on_corrupt = pcap::OnCorrupt::kSalvage;
  pcap::ParseStats parse_stats;
  pcap::DecodeStats decode_stats;
  auto t = pcap::read_trace(path, options, &parse_stats, &decode_stats);
  if (!t) {
    std::fprintf(stderr, "error: %s\n", t.status().to_string().c_str());
    std::exit(65);
  }
  std::cout << "  parent population: " << path << " ("
            << fmt_count(decode_stats.decoded) << " IPv4 packets)\n";
  if (!parse_stats.clean() || decode_stats.malformed > 0) {
    std::cout << "  data loss: " << parse_stats.corrupt_records
              << " corrupt records, " << parse_stats.skipped_bytes
              << " bytes skipped resyncing, " << parse_stats.torn_tail_bytes
              << " torn tail bytes, " << decode_stats.malformed
              << " malformed packets\n";
  }
  return exper::Experiment(std::move(*t));
}

/// Honor `--simd VARIANT`: force a SIMD kernel variant (scalar/avx2/neon)
/// for everything the bench does. Results are bit-identical across
/// variants; only wall clock changes. Returns the forced variant, or
/// nullopt when the flag is absent (NETSAMPLE_SIMD / autodetect applies).
inline std::optional<core::simd::Variant> bench_simd(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--simd") continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: --simd requires a value\n");
      std::exit(2);
    }
    const auto variant = core::simd::parse_variant(argv[i + 1]);
    if (!variant.has_value()) {
      std::fprintf(stderr,
                   "error: --simd: expected scalar, avx2, or neon, got "
                   "\"%s\"\n",
                   argv[i + 1]);
      std::exit(2);
    }
    core::simd::force_variant(*variant);
    return variant;
  }
  return std::nullopt;
}

/// The machine-class tag for benchmark artifacts: architecture plus the
/// SIMD variant the numbers were produced with (the best available one
/// unless --simd forced another). Baselines under bench/baselines/ are
/// committed per machine class, and tools/bench_diff.py refuses to compare
/// reports whose classes differ.
inline std::string machine_arch() {
#if defined(__x86_64__) || defined(_M_X64)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "unknown";
#endif
}

inline std::string machine_class(core::simd::Variant measured) {
  return machine_arch() + "-" + core::simd::variant_name(measured);
}

/// JSON "machine" block: everything needed to decide whether two BENCH
/// artifacts are comparable — arch, detected CPU features, the variant the
/// report measured, compiler, and build type.
inline std::string machine_json(core::simd::Variant measured) {
  std::ostringstream os;
  os << "{\"arch\": \"" << machine_arch() << "\", \"cpu_features\": \""
     << core::simd::cpu_feature_string() << "\", \"simd_variant\": \""
     << core::simd::variant_name(measured) << "\", \"compiler\": \""
#if defined(__clang__)
     << "clang " << __clang_major__ << "." << __clang_minor__
#elif defined(__GNUC__)
     << "gcc " << __GNUC__ << "." << __GNUC_MINOR__
#else
     << "unknown"
#endif
     << "\", \"build_type\": \""
#if defined(NETSAMPLE_BUILD_TYPE)
     << NETSAMPLE_BUILD_TYPE
#elif defined(NDEBUG)
     << "optimized"
#else
     << "debug"
#endif
     << "\", \"machine_class\": \"" << machine_class(measured) << "\"}";
  return os.str();
}

/// Observability outputs requested on the command line. bench_obs() parses
/// `--metrics-out FILE` / `--trace-out FILE` and flips the matching obs
/// enable flags immediately, so everything the figure run does afterwards
/// is counted; bench_obs_write() exports the files once the figure is done.
/// The masked metrics JSON is part of the figures' determinism contract:
/// bit-identical across --jobs levels for a fixed seed (docs/OBSERVABILITY.md).
struct ObsArgs {
  std::string metrics_path;
  std::string trace_path;
};

inline ObsArgs bench_obs(int argc, char** argv) {
  ObsArgs out;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--metrics-out") out.metrics_path = argv[i + 1];
    if (std::string(argv[i]) == "--trace-out") out.trace_path = argv[i + 1];
  }
  if (!out.metrics_path.empty() || !out.trace_path.empty()) {
    obs::set_enabled(true);
  }
  if (!out.trace_path.empty()) obs::Tracer::global().set_enabled(true);
  return out;
}

/// Write the requested snapshots; exits 2 on IO failure so a figure run in
/// CI cannot silently lose its metrics.
inline void bench_obs_write(const ObsArgs& args) {
  if (!obs::write_metrics_file(args.metrics_path) ||
      !obs::write_trace_file(args.trace_path)) {
    std::exit(2);
  }
}

inline void banner(const std::string& artifact, const std::string& what) {
  std::cout << "==============================================================\n"
            << artifact << "\n"
            << what << "\n"
            << "==============================================================\n";
}

inline void note(const std::string& text) { std::cout << "  " << text << "\n"; }

/// Emit one machine-readable CSV line (greppable with '^CSV,') through the
/// facade's row emitter, which also supplies RFC-4180-ish quoting the old
/// hand-rolled join never had.
inline void csv_row(const std::vector<std::string>& fields) {
  std::cout << netsample::csv_line(fields, "CSV") << "\n";
}

// bench::csv, the pre-facade name for csv_row(), was deprecated in v1.0
// and removed in v1.1 per the one-minor-release grace window (docs/API.md,
// "Deprecation policy"). CI greps that it stays gone.

}  // namespace netsample::bench
