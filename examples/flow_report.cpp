// Flow-level reporting, and what packet sampling does to it.
//
// Assembles 5-tuple flows from the full stream and from a 1-in-k sampled
// stream, then compares: sampled flow *counts* cannot be recovered by
// multiplying by k (short flows are missed entirely -- the flow-sampling
// bias NetFlow operators later had to correct for), while per-flow byte
// volumes of the heavy hitters remain well estimated. This is the
// flow-level face of the paper's Section 8 closing remark about sampled
// matrices and small cells.
#include <iostream>

#include "core/samplers.h"
#include "core/targets.h"
#include "net/headers.h"
#include "synth/presets.h"
#include "trace/flows.h"
#include "util/format.h"

using namespace netsample;

namespace {

trace::Trace packets_to_trace(std::vector<trace::PacketRecord> packets) {
  return trace::Trace(std::move(packets));
}

}  // namespace

int main() {
  std::cout << "Flow assembly under packet sampling\n"
            << "------------------------------------\n";

  synth::TraceModel model(synth::sdsc_minutes_config(5.0, 31));
  const auto t = model.generate();

  trace::FlowTable full_table(MicroDuration::from_seconds(30));
  full_table.run(t.view());
  const auto full = full_table.stats();

  std::cout << "full stream: " << fmt_count(full.packets) << " packets in "
            << fmt_count(full.flows) << " flows (mean "
            << fmt_double(full.mean_flow_packets, 2) << " pkts/flow, mean "
            << fmt_double(full.mean_flow_duration_sec, 2) << " s)\n\n";

  TextTable table({"1/k", "sampled flows", "naive kx flows", "true flows",
                   "flows seen %", "top-5 byte err %"});
  for (std::uint64_t k : {10ULL, 50ULL, 250ULL}) {
    const auto sample = core::draw(
        t.view(), {.method = core::Method::kSystematicCount, .granularity = k});
    trace::FlowTable sampled_table(MicroDuration::from_seconds(30));
    sampled_table.run(
        packets_to_trace(sample.packets()).view());
    const auto sampled = sampled_table.stats();

    // Heavy-hitter byte fidelity: match the full top-5 flows in the sampled
    // table (scaled by k).
    const auto top_full = full_table.top_by_packets(5);
    double err_sum = 0.0;
    int matched = 0;
    for (const auto& f : top_full) {
      for (const auto& g : sampled_table.expired()) {
        if (g.key == f.key) {
          const double est =
              static_cast<double>(g.bytes) * static_cast<double>(k);
          err_sum +=
              std::abs(est - static_cast<double>(f.bytes)) / f.bytes * 100.0;
          ++matched;
          break;
        }
      }
    }
    const double top_err = matched > 0 ? err_sum / matched : -1.0;

    table.add_row(
        {"1/" + std::to_string(k), fmt_count(sampled.flows),
         fmt_count(sampled.flows * k), fmt_count(full.flows),
         fmt_double(100.0 * static_cast<double>(sampled.flows) /
                        static_cast<double>(full.flows),
                    1),
         matched > 0 ? fmt_double(top_err, 1) : "(none matched)"});
  }
  table.print(std::cout);

  std::cout << "\ntop-5 flows of the full stream:\n";
  TextTable top({"src", "dst", "proto", "dport", "packets", "bytes",
                 "duration s"});
  for (const auto& f : full_table.top_by_packets(5)) {
    top.add_row({f.key.src.to_string(), f.key.dst.to_string(),
                 net::ip_proto_name(f.key.protocol),
                 std::to_string(f.key.dst_port), fmt_count(f.packets),
                 fmt_count(f.bytes), fmt_double(f.duration().to_seconds(), 1)});
  }
  top.print(std::cout);

  std::cout
      << "\nReading: sampled flow counts are NOT 1/k of true flow counts --\n"
         "flows shorter than ~k packets are usually missed entirely, so the\n"
         "naive kx expansion over-counts nothing and under-counts flows.\n"
         "Heavy hitters, in contrast, are byte-estimated within a few percent\n"
         "-- the same 'big cells are fine, small cells vanish' picture as the\n"
         "paper's sampled source-destination matrix.\n";
  return 0;
}
