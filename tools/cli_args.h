// Shared command-line flag handling for the netsample CLI and the six
// figure binaries (fig06–fig11).
//
// Before PR 5, --jobs/--pcap/--metrics-out parsing was duplicated between
// util::ArgParser declarations in netsample_cli.cpp and the argv-scanning
// helpers in bench/bench_common.h — with different validation and different
// unknown-flag behavior (the CLI rejected, the figures ignored). This
// helper is the single truth: one flag vocabulary, one validator, and one
// contract — *unknown flags exit with sysexits EX_USAGE (64) everywhere*,
// asserted by the cli_unknown_flag ctest entries.
//
// The microbenchmarks keep bench_common.h's permissive scanners on purpose:
// they must pass --benchmark_* flags through to google-benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsample/netsample.h"

namespace netsample::tools {

/// The flag set shared by the CLI and the figure binaries.
struct CommonOptions {
  int jobs{0};                // 0 = one worker per hardware thread
  std::string pcap;           // parent capture ("" = synthetic hour)
  std::string metrics_out;    // obs metrics JSON path ("" = off)
  std::string trace_out;      // obs trace JSON path ("" = off)
  std::string simd;           // forced SIMD variant ("" = autodetect)
};

/// Declare the shared flags on an ArgParser (the CLI merges these into each
/// subcommand's vocabulary). `with_pcap` is off for subcommands that take
/// the capture as a positional instead.
void add_common_flags(ArgParser& args, bool with_pcap = true);

/// The sharded-sweep flag vocabulary (netsample sweep / netsample worker):
/// --workers, --store, --store-backend, --keep-store, --methods, --grid-k,
/// --transport, --listen, --connect, --connect-retries,
/// --heartbeat-interval, --lease-timeout, --netfault, --chaos-kill-after,
/// --max-respawns, --die-after, --depart-after. One declaration site so the
/// coordinator and worker subcommands cannot drift.
void add_sweep_flags(ArgParser& args);

/// The single reader behind every integer flag and list item (--jobs,
/// --k, --seed, NETSAMPLE_JOBS, --grid-k, budgets): a base-10 integer in
/// [min_value, max_value] as the whole token (the unsigned grammar of
/// docs/FORMATS.md, "Text fields"), else std::invalid_argument with one
/// uniform message naming `source` (exit 64 at the CLI).
[[nodiscard]] std::uint64_t checked_count(const std::string& source,
                                          const std::string& text,
                                          std::uint64_t max_value,
                                          std::uint64_t min_value = 0);

/// The same for real-valued flags and list items (durations, rates,
/// --intensity probabilities): a finite decimal in [0, max_value] as the
/// whole token (the real grammar of the same section).
[[nodiscard]] double checked_real(const std::string& source,
                                  const std::string& text, double max_value);

/// The items of a comma-separated flag value, split by the list grammar of
/// the same section: an empty value is an empty list, and an empty item
/// ("2,,4") reaches its reader, which refuses it.
[[nodiscard]] std::vector<std::string> list_items(const std::string& list);

/// Read the shared flags back after a successful parse(), validating ranges
/// (--jobs in [0, 4096]) and applying side effects: --simd forces a kernel
/// variant, --metrics-out/--trace-out enable obs collection.
/// Throws std::invalid_argument with a user-facing message on bad values.
[[nodiscard]] CommonOptions read_common_options(const ArgParser& args);

/// One-call front end for the figure binaries: parse argv strictly (any
/// unknown flag prints the vocabulary and exits 64), honor NETSAMPLE_JOBS /
/// NETSAMPLE_PCAP as fallbacks, apply side effects, and hand back the
/// options. `extra_help` names the binary in --help.
[[nodiscard]] CommonOptions parse_figure_args(int argc, char** argv,
                                              const std::string& extra_help);

/// Parent population for a figure run: the --pcap capture (salvage mode,
/// loss counters printed, exit 65 when unreadable) or the calibrated
/// synthetic hour.
[[nodiscard]] exper::Experiment figure_experiment(
    const CommonOptions& options, std::uint64_t seed, double minutes = 60.0);

/// Export the requested obs snapshots; exits 70 (EX_SOFTWARE) on a write
/// failure so CI cannot silently lose metrics.
void write_obs_outputs(const CommonOptions& options);

}  // namespace netsample::tools
