#include "tools/cli_args.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/fields.h"

namespace netsample::tools {

std::uint64_t checked_count(const std::string& source, const std::string& text,
                            std::uint64_t max_value, std::uint64_t min_value) {
  std::uint64_t v = 0;
  if (!fields::parse_uint(text, &v, max_value) || v < min_value) {
    throw std::invalid_argument(source + ": expected an integer in [" +
                                std::to_string(min_value) + ", " +
                                std::to_string(max_value) + "], got \"" +
                                text + "\"");
  }
  return v;
}

double checked_real(const std::string& source, const std::string& text,
                    double max_value) {
  double v = 0;
  if (!fields::parse_real(text, &v) || v < 0.0 || v > max_value) {
    char max_text[32];
    std::snprintf(max_text, sizeof max_text, "%g", max_value);
    throw std::invalid_argument(source + ": expected a number in [0, " +
                                max_text + "], got \"" + text + "\"");
  }
  return v;
}

std::vector<std::string> list_items(const std::string& list) {
  std::vector<std::string> out;
  (void)fields::for_each_item(list, ',', [&out](std::string_view item) {
    out.emplace_back(item);
    return true;
  });
  return out;
}

void add_common_flags(ArgParser& args, bool with_pcap) {
  args.add_flag("jobs", "N",
                "worker threads (0 = one per hardware thread)", "0");
  if (with_pcap) {
    args.add_flag("pcap", "FILE",
                  "regenerate from a real capture instead of the synthetic "
                  "hour (salvage mode)");
  }
  args.add_flag("metrics-out", "FILE", "write obs metrics JSON here");
  args.add_flag("trace-out", "FILE", "write obs span trace JSON here");
  args.add_flag("simd", "VARIANT",
                "force the SIMD kernel variant: scalar, avx2, or neon "
                "(results are bit-identical; default autodetects)");
}

void add_sweep_flags(ArgParser& args) {
  args.add_flag("workers", "N",
                "sweep: worker processes (0 = in-process threads via --jobs)",
                "0");
  args.add_flag("store", "FILE",
                "sweep/worker: trace store path (sweep default: <pcap>.nstore)");
  args.add_flag("store-backend", "B",
                "trace store byte source: mmap (zero-copy) or read", "mmap");
  args.add_flag("keep-store", "",
                "sweep: keep an auto-written store file after the run");
  args.add_flag("methods", "LIST",
                "sweep: comma-separated sampling methods, or 'all'", "all");
  args.add_flag("grid-k", "LIST",
                "sweep: comma-separated granularities, or 'ladder' "
                "(2,4,...,32768)", "ladder");
  args.add_flag("chaos-kill-after", "N",
                "sweep: SIGKILL one busy worker after N accepted results "
                "(fault drill; 0 = off)", "0");
  args.add_flag("max-respawns", "N",
                "sweep: replacement workers allowed after unexpected deaths",
                "8");
  args.add_flag("die-after", "N",
                "worker: _exit(137) after N completed cells (fault drill; "
                "0 = off)", "0");
  args.add_flag("depart-after", "N",
                "sweep: first worker sends BYE and exits cleanly after N "
                "cells (fault drill; 0 = off)", "0");
  args.add_flag("transport", "KIND",
                "sweep: how lease lines travel to workers: pipe or socket",
                "pipe");
  args.add_flag("listen", "HOST:PORT",
                "sweep --transport socket: bind address (port 0 = ephemeral)",
                "127.0.0.1:0");
  args.add_flag("connect", "HOST:PORT",
                "worker: dial a socket coordinator instead of stdin/stdout");
  args.add_flag("connect-retries", "N",
                "socket: worker redial attempts per lost connection", "5");
  args.add_flag("heartbeat-interval", "SECONDS",
                "sweep --transport socket: PING cadence; idle workers silent "
                "for 4 periods are disconnected (0 = off)", "0");
  args.add_flag("lease-timeout", "SECONDS",
                "sweep: reclaim leases older than this from stalled-but-"
                "connected workers (0 = off)", "0");
  args.add_flag("netfault", "SPEC",
                "fault drill: worker-side wire impairment schedule, e.g. "
                "\"seed=7,drop=0.1,delay=0.2,delay-ms=2\"");
}

CommonOptions read_common_options(const ArgParser& args) {
  CommonOptions out;
  out.jobs =
      static_cast<int>(checked_count("--jobs", args.get_string("jobs"), 4096));
  if (args.has("pcap")) out.pcap = args.get_string("pcap");
  if (args.has("metrics-out")) out.metrics_out = args.get_string("metrics-out");
  if (args.has("trace-out")) out.trace_out = args.get_string("trace-out");
  if (args.has("simd")) out.simd = args.get_string("simd");

  if (!out.simd.empty()) {
    const auto variant = core::simd::parse_variant(out.simd);
    if (!variant.has_value()) {
      throw std::invalid_argument("--simd: expected scalar, avx2, or neon, "
                                  "got \"" +
                                  out.simd + "\"");
    }
    core::simd::force_variant(*variant);
  }
  if (!out.metrics_out.empty() || !out.trace_out.empty()) {
    obs::set_enabled(true);
  }
  if (!out.trace_out.empty()) obs::Tracer::global().set_enabled(true);
  return out;
}

CommonOptions parse_figure_args(int argc, char** argv,
                                const std::string& extra_help) {
  ArgParser args;
  add_common_flags(args);
  args.add_flag("help", "", "print this help");

  std::vector<std::string> tokens;
  tokens.reserve(static_cast<std::size_t>(argc > 1 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);

  const Status parsed = args.parse(tokens);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "error: %s\nusage: %s\n%s", parsed.to_string().c_str(),
                 extra_help.c_str(), args.help().c_str());
    std::exit(64);  // EX_USAGE
  }
  if (args.get_bool("help")) {
    std::printf("usage: %s\n%s", extra_help.c_str(), args.help().c_str());
    std::exit(0);
  }
  if (!args.positionals().empty()) {
    std::fprintf(stderr, "error: unexpected argument \"%s\"\nusage: %s\n%s",
                 args.positionals().front().c_str(), extra_help.c_str(),
                 args.help().c_str());
    std::exit(64);
  }

  bool jobs_explicit = false;
  for (const auto& t : tokens) jobs_explicit = jobs_explicit || t.rfind("--jobs", 0) == 0;

  try {
    CommonOptions out = read_common_options(args);
    // Environment fallbacks keep the historical bench contract: an explicit
    // --jobs (even "--jobs 0" = auto) beats NETSAMPLE_JOBS beats auto.
    if (!jobs_explicit) {
      if (const char* env = std::getenv("NETSAMPLE_JOBS")) {
        out.jobs =
            static_cast<int>(checked_count("NETSAMPLE_JOBS", env, 4096));
      }
    }
    if (out.pcap.empty()) {
      if (const char* env = std::getenv("NETSAMPLE_PCAP")) out.pcap = env;
    }
    return out;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(64);
  }
}

exper::Experiment figure_experiment(const CommonOptions& options,
                                    std::uint64_t seed, double minutes) {
  if (options.pcap.empty()) return exper::Experiment(seed, minutes);

  pcap::ParseOptions parse_options;
  parse_options.on_corrupt = pcap::OnCorrupt::kSalvage;
  pcap::ParseStats parse_stats;
  pcap::DecodeStats decode_stats;
  auto t = pcap::read_trace(options.pcap, parse_options, &parse_stats,
                            &decode_stats);
  if (!t) {
    std::fprintf(stderr, "error: %s\n", t.status().to_string().c_str());
    std::exit(65);  // EX_DATAERR
  }
  std::printf("  parent population: %s (%s IPv4 packets)\n",
              options.pcap.c_str(), fmt_count(decode_stats.decoded).c_str());
  if (!parse_stats.clean() || decode_stats.malformed > 0) {
    std::printf("  data loss: %zu corrupt records, %zu bytes skipped "
                "resyncing, %zu torn tail bytes, %zu malformed packets\n",
                parse_stats.corrupt_records, parse_stats.skipped_bytes,
                parse_stats.torn_tail_bytes, decode_stats.malformed);
  }
  return exper::Experiment(std::move(*t));
}

void write_obs_outputs(const CommonOptions& options) {
  if (!obs::write_metrics_file(options.metrics_out) ||
      !obs::write_trace_file(options.trace_out)) {
    std::exit(70);  // EX_SOFTWARE
  }
}

}  // namespace netsample::tools
