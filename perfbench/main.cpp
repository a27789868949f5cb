// The benchmark program. run.py builds it and calls it twice per run:
//
//   perfbench gen --seed N --out capture.pcap
//       the first kCapturePackets packets of the calibrated 60-minute
//       synthetic hour for seed N, written with pcap::write_trace (a process
//       of its own, so generation never shows in the workload's time or
//       memory);
//   perfbench run --workload W --trace 0|1 --seed N --seconds S
//                 --pcap capture.pcap --netsample BIN --work DIR
//       one workload, printing its metrics and, as the last line, the
//       result object. Exits 1 when any output check failed.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "netsample/netsample.h"
#include "perfbench.h"

namespace {

using namespace perfbench;

// Every capture is the first 1.5M packets of its seed's calibrated hour
// (the hours of 12 sampled seeds held 1.55M-1.61M), so set-up time and
// memory do not move with the seed's packet count.
constexpr std::size_t kCapturePackets = 1500000;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& f,
                 const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

int cmd_gen(const std::map<std::string, std::string>& f) {
  const auto seed = std::stoull(need(f, "seed"));
  netsample::synth::TraceModel model(netsample::synth::sdsc_hour_config(seed));
  const auto hour = model.generate();
  const auto all = hour.packets();
  const netsample::trace::Trace t(std::vector<netsample::trace::PacketRecord>(
      all.begin(), all.begin() + std::min(all.size(), kCapturePackets)));
  const auto st = netsample::pcap::write_trace(need(f, "out"), t, 128);
  if (!st.is_ok()) {
    std::fprintf(stderr, "gen: %s\n", st.message().c_str());
    return 1;
  }
  return 0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int cmd_run(const std::map<std::string, std::string>& f) {
  RunArgs args;
  const std::string workload = need(f, "workload");
  const bool traced = need(f, "trace") == "1";
  args.pcap = need(f, "pcap");
  args.netsample = need(f, "netsample");
  args.work_dir = need(f, "work");
  args.seed = std::stoull(need(f, "seed"));
  args.seconds = std::stod(need(f, "seconds"));

  struct stat sb{};
  if (::stat(args.pcap.c_str(), &sb) != 0) {
    std::fprintf(stderr, "run: no capture at %s\n", args.pcap.c_str());
    return 1;
  }

  Report report;
  if (traced) {
    // Every traced run prints the whole ledger: the per-layer metrics of
    // all three workloads, so each traced run reports every stage.
    const TransportProbe wire = probe_transport(2000);
    report = trace_grids(args, wire);
    report.merge(trace_serve_windows(args, wire));
  } else if (workload == "paper_grid") {
    report = run_paper_grid(args);
  } else if (workload == "shard_lease") {
    report = run_shard_lease(args);
  } else if (workload == "serve_windows") {
    report = run_serve_windows(args);
  } else {
    std::fprintf(stderr, "run: unknown workload %s\n", workload.c_str());
    return 2;
  }

  std::printf("capture: %zu packets, %llu bytes, seed %llu\n",
              report.capture_packets,
              static_cast<unsigned long long>(sb.st_size),
              static_cast<unsigned long long>(args.seed));
  if (!traced) {
    std::printf("host: %.1f%% of CPU time stolen during the timed phase\n",
                report.steal_share * 100);
  }
  std::printf("%-36s %18s  %-8s %s\n", "metric", "value", "unit", "samples");
  for (const auto& m : report.metrics) {
    std::printf("%-36s %18.6f  %-8s %llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const auto& e : report.errors) std::printf("FAILED: %s\n", e.c_str());

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: perfbench gen|run ...");
    const std::string cmd = argv[1];
    const auto flags = parse_flags(argc, argv);
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "run") return cmd_run(flags);
    throw std::invalid_argument("unknown command " + cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
