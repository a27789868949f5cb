// A/B/C wall-clock harness for the fused sweep engine: runs the full
// method x granularity grid cell-by-cell through the streaming oracle
// (exper::run_cell_reference, the "legacy" column), run_cell with scalar
// kernels, and run_cell with the best SIMD variant, checks that the phi
// values agree exactly across all three, and writes per-cell timings plus
// headline speedups and a `machine` block to a JSON artifact
// (BENCH_sweep.json in CI).
//
// Unlike the micro_* google-benchmark binaries this is a plain-chrono
// driver, because each measurement must toggle the global SIMD-variant
// switch around an otherwise identical cell call.
//
//   --out FILE       where to write the JSON report (default BENCH_sweep.json)
//   --minutes M      synthetic trace length (default 8)
//   --reps R         replications per cell (default 5)
//   --workers N      also time the headline cells through the sharded
//                    multi-process runtime (N forked workers over one
//                    memory-mapped TraceStore) and report
//                    pkts_per_sec_multiproc plus the store map-vs-rebuild
//                    amortization (docs/SHARDING.md)
//   --simd VARIANT   measure VARIANT instead of the best available one
//   --baseline FILE  compare the headline against a committed baseline
//   --tolerance PCT  allowed headline regression vs baseline (default 25)
//
// Exit codes: 0 ok, 1 phi mismatch / multiproc failure, 2 usage/IO,
// 3 baseline machine-class mismatch, 4 headline regression beyond
// tolerance.
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "json_mini.h"

using namespace netsample;

namespace {

using Clock = std::chrono::steady_clock;
namespace simd = core::simd;

double parse_positive_double(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v > 0.0)) {
    std::fprintf(stderr, "error: %s: expected a positive number, got \"%s\"\n",
                 flag, text);
    std::exit(2);
  }
  return v;
}

/// Mean wall-clock milliseconds for one cell runner (run_cell or the
/// streaming run_cell_reference), repeating the call until at least
/// `min_elapsed_ms` has accumulated so that very fast cells (the whole
/// point of the fast path) still get a stable reading.
double time_cell(const exper::CellConfig& cfg,
                 exper::CellResult (*runner)(const exper::CellConfig&),
                 simd::Variant variant, std::vector<double>* phis,
                 double min_elapsed_ms = 10.0) {
  simd::force_variant(variant);
  double elapsed_ms = 0.0;
  int runs = 0;
  do {
    const auto t0 = Clock::now();
    const auto result = runner(cfg);
    const auto t1 = Clock::now();
    elapsed_ms +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ++runs;
    if (runs == 1) *phis = result.phi_values();
  } while (elapsed_ms < min_elapsed_ms && runs < 1000);
  return elapsed_ms / runs;
}

/// Wall-clock milliseconds to build the shared BinnedTraceCache under a
/// forced variant — the classify kernels' own benchmark.
double time_cache_build(const trace::Trace& t, simd::Variant variant) {
  simd::force_variant(variant);
  double best_ms = 1e300;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const core::BinnedTraceCache cache(t.view());
    const auto t1 = Clock::now();
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best_ms;
}

/// Gate the fresh headline against a committed baseline artifact. Refuses
/// to compare across machine classes or sweep configs (exit 3): a scalar
/// container comparing itself against an AVX2 baseline would "regress" by
/// the whole SIMD speedup. Regression beyond tolerance exits 4.
int check_baseline(const std::string& path, const std::string& machine_class,
                   double minutes, int reps, double pkts_per_sec,
                   double tolerance_pct) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: --baseline: cannot read %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto root = bench::json_parse(buf.str());
  if (!root || !root->is_object()) {
    std::fprintf(stderr, "error: --baseline: %s is not a JSON object\n",
                 path.c_str());
    return 2;
  }
  const std::string base_class =
      root->at("machine").at("machine_class").str_or("");
  if (base_class != machine_class) {
    std::fprintf(stderr,
                 "error: baseline machine class \"%s\" does not match this "
                 "run (\"%s\") — regenerate the baseline on this machine "
                 "class or pass the matching file\n",
                 base_class.c_str(), machine_class.c_str());
    return 3;
  }
  const double base_minutes = root->at("trace_minutes").num_or(-1.0);
  const double base_reps = root->at("replications").num_or(-1.0);
  if (base_minutes != minutes || base_reps != reps) {
    std::fprintf(stderr,
                 "error: baseline config (minutes=%g, reps=%g) does not "
                 "match this run (minutes=%g, reps=%d)\n",
                 base_minutes, base_reps, minutes, reps);
    return 3;
  }
  const double base_pps = root->at("headline").at("pkts_per_sec_best")
                              .num_or(0.0);
  if (!(base_pps > 0.0)) {
    std::fprintf(stderr,
                 "error: baseline %s has no headline.pkts_per_sec_best\n",
                 path.c_str());
    return 2;
  }
  const double floor = base_pps * (1.0 - tolerance_pct / 100.0);
  const double delta_pct = 100.0 * (pkts_per_sec - base_pps) / base_pps;
  bench::note("baseline " + path + ": " + fmt_double(base_pps / 1e6, 2) +
              " Mpkt/s, this run " + fmt_double(pkts_per_sec / 1e6, 2) +
              " Mpkt/s (" + (delta_pct >= 0 ? "+" : "") +
              fmt_double(delta_pct, 1) + "%, tolerance -" +
              fmt_double(tolerance_pct, 0) + "%)");
  if (pkts_per_sec < floor) {
    std::fprintf(stderr,
                 "error: headline regression: %.3g pkt/s is below the "
                 "baseline floor %.3g pkt/s (%.3g - %g%%)\n",
                 pkts_per_sec, floor, base_pps, tolerance_pct);
    return 4;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sweep.json";
  std::string baseline_path;
  double minutes = 8.0;
  double tolerance_pct = 25.0;
  int reps = 5;
  int workers = 0;  // 0 = skip the multi-process leg
  const auto forced = bench::bench_simd(argc, argv);
  // --metrics-out/--trace-out also serve as the obs-overhead A/B switch:
  // the acceptance bar is <3% on the fast path with metrics enabled.
  const bench::ObsArgs obs_args = bench::bench_obs(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--baseline" && has_value) {
      baseline_path = argv[++i];
    } else if (arg == "--minutes" && has_value) {
      minutes = parse_positive_double("--minutes", argv[++i]);
    } else if (arg == "--reps" && has_value) {
      reps = static_cast<int>(
          parse_positive_double("--reps", argv[++i]));
    } else if (arg == "--workers" && has_value) {
      workers = static_cast<int>(
          parse_positive_double("--workers", argv[++i]));
    } else if (arg == "--tolerance" && has_value) {
      tolerance_pct = parse_positive_double("--tolerance", argv[++i]);
    } else if (arg == "--out" || arg == "--baseline" || arg == "--minutes" ||
               arg == "--reps" || arg == "--workers" || arg == "--tolerance") {
      std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
      return 2;
    }
  }

  // The variant this report measures: --simd (resolved through
  // availability, so forcing neon on x86 measures scalar) or the best one.
  const simd::Variant measured =
      forced.has_value() ? simd::active_variant() : simd::best_variant();
  const bool with_simd = measured != simd::Variant::kScalar;

  bench::banner("micro_sweep (fused sweep engine A/B/C harness)",
                std::string("Streaming reference vs run_cell (scalar) vs "
                            "run_cell (") +
                    simd::variant_name(measured) + "), per grid cell");
  bench::note("machine class: " + bench::machine_class(measured));

  exper::Experiment ex(bench::kDefaultSeed, minutes);

  // Classify-kernel benchmark: the one-off O(N) cache build, scalar vs
  // measured variant (identical bins, asserted by the differential suite).
  const double cache_scalar_ms =
      time_cache_build(ex.trace(), simd::Variant::kScalar);
  const double cache_simd_ms =
      with_simd ? time_cache_build(ex.trace(), measured) : cache_scalar_ms;
  const auto& cache = ex.binned_cache();

  const core::Method methods[] = {
      core::Method::kSystematicCount, core::Method::kStratifiedCount,
      core::Method::kSimpleRandom, core::Method::kSystematicTimer,
      core::Method::kStratifiedTimer};
  const auto ladder = exper::granularity_ladder(2, 32768);

  std::ostringstream cells_json;
  TextTable t({"method", "1/x", "legacy ms", "scalar ms",
               with_simd ? std::string(simd::variant_name(measured)) + " ms"
                         : "fast ms",
               "speedup", "simd x"});
  double headline_legacy_ms = 0.0, headline_scalar_ms = 0.0,
         headline_best_ms = 0.0;
  std::size_t headline_cells = 0;
  constexpr std::uint64_t kHeadlineMinK = 1024;
  bool all_match = true;
  bool first_cell = true;

  for (const auto method : methods) {
    for (const std::uint64_t k : ladder) {
      exper::CellConfig cfg;
      cfg.method = method;
      cfg.target = core::Target::kPacketSize;
      cfg.granularity = k;
      cfg.interval = ex.full();
      cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
      cfg.replications = reps;
      cfg.base_seed = 1;
      cfg.cache = &cache;

      std::vector<double> phi_legacy, phi_scalar, phi_simd;
      // The legacy column times the deprecated streaming oracle on purpose.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
      const double legacy_ms =
          time_cell(cfg, exper::run_cell_reference, simd::Variant::kScalar,
                    &phi_legacy);
#pragma GCC diagnostic pop
      const double scalar_ms = time_cell(cfg, exper::run_cell,
                                         simd::Variant::kScalar, &phi_scalar);
      // Bit-identical, not approximately equal: every path feeds the same
      // integer histogram counts into the same scoring code.
      bool match = phi_scalar == phi_legacy;
      double simd_ms = scalar_ms;
      if (with_simd) {
        simd_ms = time_cell(cfg, exper::run_cell, measured, &phi_simd);
        match = match && phi_simd == phi_legacy;
      }
      all_match = all_match && match;
      if (k >= kHeadlineMinK) {
        headline_legacy_ms += legacy_ms;
        headline_scalar_ms += scalar_ms;
        headline_best_ms += simd_ms;
        ++headline_cells;
      }

      t.add_row({core::method_name(method), fmt_fraction(k),
                 fmt_double(legacy_ms, 3), fmt_double(scalar_ms, 3),
                 with_simd ? fmt_double(simd_ms, 3) : "-",
                 fmt_double(legacy_ms / simd_ms, 1),
                 with_simd ? fmt_double(scalar_ms / simd_ms, 2) : "-"});

      if (!first_cell) cells_json << ",";
      first_cell = false;
      cells_json << "\n    {\"method\": \"" << core::method_name(method)
                 << "\", \"granularity\": " << k
                 << ", \"wall_ms_legacy\": " << legacy_ms
                 << ", \"wall_ms_scalar\": " << scalar_ms
                 << ", \"wall_ms_simd\": " << simd_ms
                 << ", \"speedup\": " << legacy_ms / simd_ms
                 << ", \"simd_speedup\": " << scalar_ms / simd_ms
                 << ", \"phi_match\": " << (match ? "true" : "false") << "}";
    }
  }
  simd::clear_variant_override();
  t.print(std::cout);

  // Multi-process leg: the same headline cells (k >= 1024, packet size, all
  // methods) through the sharded coordinator — N forked workers scoring
  // over ONE memory-mapped TraceStore instead of N private cache rebuilds.
  // The amortization story is store-map vs cache-rebuild: each extra
  // process costs a map, not an O(N) re-bin.
  double store_write_ms = 0.0, store_map_ms = 0.0, multiproc_wall_ms = 0.0;
  double pkts_per_sec_multiproc = 0.0;
  std::uint64_t multiproc_worker_builds = 0;
  std::size_t multiproc_cells = 0;
  bool multiproc_ok = true;
  const bool run_multiproc = workers > 0;
  if (run_multiproc) {
    const std::string store_path = out_path + ".nstore";
    std::filesystem::remove(store_path);
    const double mean_size =
        trace::summarize_population(ex.full()).packet_size.mean;
    {
      const auto t0 = Clock::now();
      const Status st = shard::write_trace_store(
          store_path, cache, ex.mean_interarrival_usec(), mean_size);
      const auto t1 = Clock::now();
      if (!st.is_ok()) {
        std::fprintf(stderr, "error: --workers: %s\n", st.to_string().c_str());
        return 2;
      }
      store_write_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
    }
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      const auto opened =
          shard::TraceStore::open(store_path, shard::store_backend("mmap"));
      const auto t1 = Clock::now();
      if (!opened.has_value()) {
        std::fprintf(stderr, "error: --workers: %s\n",
                     opened.status().to_string().c_str());
        return 2;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      store_map_ms = i == 0 ? ms : std::min(store_map_ms, ms);
    }

    shard::SweepSpec spec;
    spec.targets = {core::Target::kPacketSize};
    spec.methods.assign(methods, methods + sizeof methods / sizeof methods[0]);
    for (const std::uint64_t k : ladder) {
      if (k >= kHeadlineMinK) spec.granularities.push_back(k);
    }
    spec.replications = reps;
    spec.base_seed = 1;
    multiproc_cells = spec.cell_count();

    shard::CoordinatorOptions copts;
    copts.workers = workers;
    copts.store_path = store_path;  // fork-only workers: no exec, same binary
    const auto t0 = Clock::now();
    const auto report = shard::run_sharded_sweep(spec, copts);
    const auto t1 = Clock::now();
    multiproc_wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (!report.has_value()) {
      std::fprintf(stderr, "error: --workers: %s\n",
                   report.status().to_string().c_str());
      return 2;
    }
    multiproc_worker_builds = report->worker_cache_builds;
    multiproc_ok = report->all_ok() && multiproc_worker_builds == 0;
    const double multiproc_pkts = static_cast<double>(ex.population_size()) *
                                  static_cast<double>(reps) *
                                  static_cast<double>(multiproc_cells);
    pkts_per_sec_multiproc = multiproc_wall_ms > 0.0
                                 ? multiproc_pkts / (multiproc_wall_ms / 1e3)
                                 : 0.0;
    std::filesystem::remove(store_path);
  }

  // Throughput-style headline for the committed trajectory: offered packets
  // scanned per wall-clock second on the best path over the headline cells
  // (k >= 1024, where per-cell fixed costs are amortized away).
  const double headline_pkts =
      static_cast<double>(ex.population_size()) *
      static_cast<double>(reps) * static_cast<double>(headline_cells);
  const double pkts_per_sec_best =
      headline_best_ms > 0.0 ? headline_pkts / (headline_best_ms / 1e3) : 0.0;

  std::ofstream out(out_path);
  out << "{\n  \"trace_minutes\": " << minutes
      << ",\n  \"packets\": " << ex.population_size()
      << ",\n  \"replications\": " << reps
      << ",\n  \"machine\": " << bench::machine_json(measured)
      << ",\n  \"cache_build\": {\"scalar_ms\": " << cache_scalar_ms
      << ", \"simd_ms\": " << cache_simd_ms
      << ", \"simd_speedup\": " << cache_scalar_ms / cache_simd_ms << "}"
      << ",\n  \"cells\": [" << cells_json.str() << "\n  ]"
      << ",\n  \"headline\": {\"min_granularity\": " << kHeadlineMinK
      << ", \"cells\": " << headline_cells
      << ", \"legacy_ms\": " << headline_legacy_ms
      << ", \"scalar_ms\": " << headline_scalar_ms
      << ", \"best_ms\": " << headline_best_ms
      << ", \"speedup\": " << headline_legacy_ms / headline_best_ms
      << ", \"simd_speedup\": " << headline_scalar_ms / headline_best_ms
      << ", \"pkts_per_sec_best\": " << pkts_per_sec_best;
  if (run_multiproc) {
    out << ", \"pkts_per_sec_multiproc\": " << pkts_per_sec_multiproc;
  }
  out << "}";
  if (run_multiproc) {
    out << ",\n  \"multiproc\": {\"workers\": " << workers
        << ", \"cells\": " << multiproc_cells
        << ", \"wall_ms\": " << multiproc_wall_ms
        << ", \"store_write_ms\": " << store_write_ms
        << ", \"store_map_ms\": " << store_map_ms
        << ", \"cache_rebuild_ms\": " << cache_scalar_ms
        << ", \"map_vs_rebuild\": " << cache_scalar_ms / store_map_ms
        << ", \"worker_cache_builds\": " << multiproc_worker_builds
        << ", \"all_ok\": " << (multiproc_ok ? "true" : "false") << "}";
  }
  out << ",\n  \"phi_all_match\": " << (all_match ? "true" : "false")
      << "\n}\n";

  bench::note("headline (k >= " + std::to_string(kHeadlineMinK) +
              "): " + fmt_double(headline_legacy_ms, 1) + " ms legacy vs " +
              fmt_double(headline_scalar_ms, 3) + " ms scalar vs " +
              fmt_double(headline_best_ms, 3) + " ms " +
              simd::variant_name(measured) + " = " +
              fmt_double(headline_legacy_ms / headline_best_ms, 1) +
              "x total, " +
              fmt_double(headline_scalar_ms / headline_best_ms, 2) +
              "x from simd");
  bench::note("best-path throughput: " +
              fmt_double(pkts_per_sec_best / 1e6, 2) + " Mpkt/s");
  bench::note("cache build: " + fmt_double(cache_scalar_ms, 2) +
              " ms scalar vs " + fmt_double(cache_simd_ms, 2) + " ms " +
              simd::variant_name(measured) + " = " +
              fmt_double(cache_scalar_ms / cache_simd_ms, 2) + "x");
  bench::note(all_match ? "phi values bit-identical on every cell and path"
                        : "PHI MISMATCH — paths disagree");
  if (run_multiproc) {
    bench::note("multiproc (" + std::to_string(workers) + " workers, " +
                std::to_string(multiproc_cells) + " headline cells): " +
                fmt_double(multiproc_wall_ms, 1) + " ms wall = " +
                fmt_double(pkts_per_sec_multiproc / 1e6, 2) + " Mpkt/s");
    bench::note("store amortization: write once " +
                fmt_double(store_write_ms, 2) + " ms, then " +
                fmt_double(store_map_ms, 3) + " ms map per process vs " +
                fmt_double(cache_scalar_ms, 2) + " ms rebuild = " +
                fmt_double(cache_scalar_ms / store_map_ms, 1) +
                "x per extra process (worker cache builds: " +
                std::to_string(multiproc_worker_builds) + ")");
    if (!multiproc_ok) {
      bench::note("MULTIPROC FAILURE — sharded sweep failed a cell or a "
                  "worker re-binned");
    }
  }
  bench::note("wrote " + out_path);
  bench::bench_obs_write(obs_args);
  if (!all_match) return 1;
  if (run_multiproc && !multiproc_ok) return 1;

  if (!baseline_path.empty()) {
    const int rc =
        check_baseline(baseline_path, bench::machine_class(measured), minutes,
                       reps, pkts_per_sec_best, tolerance_pct);
    if (rc != 0) return rc;
  }
  return 0;
}
