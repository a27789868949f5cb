// trace_inspector: a small pcap tool on top of the library.
//
//   trace_inspector                     -> generate a demo hour-slice, write
//                                          demo.pcap, and inspect it
//   trace_inspector <capture.pcap>      -> inspect an existing capture
//   trace_inspector <capture.pcap> <k>  -> also report what a 1-in-k
//                                          systematic sample would preserve
//
// Demonstrates the pcap reader/writer, the population summaries, and the
// phi scoring on real files.
#include <charconv>
#include <iostream>
#include <string>

#include "core/metrics.h"
#include "core/samplers.h"
#include "core/targets.h"
#include "pcap/pcap.h"
#include "synth/presets.h"
#include "trace/summary.h"
#include "util/format.h"

using namespace netsample;

namespace {

void print_summary(const trace::Trace& t) {
  const auto view = t.view();
  const auto pop = trace::summarize_population(view);
  const auto ps = trace::summarize_per_second(view);

  std::cout << "packets: " << fmt_count(view.size()) << ", bytes: "
            << fmt_count(view.total_bytes()) << ", duration: "
            << fmt_double(view.duration().to_seconds(), 1) << " s\n\n";

  TextTable t1({"distribution", "min", "25%", "median", "75%", "max", "mean",
                "stddev"});
  auto add = [&](const std::string& name, const stats::Summary& s) {
    t1.add_row({name, fmt_double(s.min, 0), fmt_double(s.q1, 0),
                fmt_double(s.median, 0), fmt_double(s.q3, 0),
                fmt_double(s.max, 0), fmt_double(s.mean, 1),
                fmt_double(s.stddev, 1)});
  };
  add("packet size (B)", pop.packet_size);
  add("interarrival (us)", pop.interarrival);
  add("packets/s", ps.packet_rate);
  add("kB/s", ps.kilobyte_rate);
  t1.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::uint64_t k = 50;

  if (argc < 2) {
    // No capture given: synthesize a demo slice and write it out.
    path = "demo.pcap";
    std::cout << "no capture given; generating 2 minutes of synthetic SDSC\n"
              << "traffic and writing " << path << "\n\n";
    synth::TraceModel model(synth::sdsc_minutes_config(2.0, 1234));
    const auto t = model.generate();
    const auto status = pcap::write_trace(path, t, 128);
    if (!status.is_ok()) {
      std::cerr << "error: " << status.to_string() << "\n";
      return 1;
    }
  } else {
    path = argv[1];
    if (argc > 2) {
      const std::string arg = argv[2];
      const char* end = arg.data() + arg.size();
      const auto parsed = std::from_chars(arg.data(), end, k);
      if (parsed.ec != std::errc() || parsed.ptr != end || k == 0) {
        std::cerr << "trace_inspector: k must be a whole number >= 1, got '"
                  << arg << "'\n";
        return 64;
      }
    }
  }

  pcap::DecodeStats dstats;
  auto loaded = pcap::read_trace(path, &dstats);
  if (!loaded) {
    std::cerr << "error reading " << path << ": "
              << loaded.status().to_string() << "\n";
    return 1;
  }
  std::cout << path << ": decoded " << fmt_count(dstats.decoded)
            << " IPv4 packets (" << dstats.non_ipv4 << " non-IPv4, "
            << dstats.malformed << " malformed)\n\n";
  print_summary(*loaded);

  // What would a 1-in-k systematic sample preserve?
  if (loaded->size() / 2 < k) {
    std::cout << "\n(trace too small for a 1/" << k << " sampling report)\n";
    return 0;
  }
  std::cout << "\nsystematic 1/" << k << " sampling fidelity:\n";
  const auto view = loaded->view();
  TextTable t2({"target", "sample n", "phi", "chi2 sig", "verdict @0.05"});
  for (auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    const auto sample = core::draw(
        view, {.method = core::Method::kSystematicCount, .granularity = k});
    const auto poph = core::bin_population(view, target);
    const auto obsh = core::bin_sample(sample, target);
    const auto m =
        core::score_sample(obsh, poph, 1.0 / static_cast<double>(k));
    t2.add_row({core::target_name(target), fmt_count(m.sample_n),
                fmt_double(m.phi, 4), fmt_double(m.significance, 4),
                m.significance >= 0.05 ? "compatible" : "rejected"});
  }
  t2.print(std::cout);
  return 0;
}
