// Ablation A2: is traffic burstiness the mechanism behind the paper's
// headline result (timer methods worse than packet methods)?
//
// We regenerate the workload with the packet-train process disabled
// (poissonified: same size marginal, same mean rate, same per-second
// modulation, but no trains) and compare the timer-vs-packet phi gap.
//
// Expected: for the packet-size target the timer penalty nearly vanishes
// without burstiness (sizes become independent of gaps); for interarrival
// time a penalty remains (length-biased selection is intrinsic to timer
// sampling) but shrinks.
#include "bench_common.h"
#include "synth/presets.h"

using namespace netsample;

namespace {

struct GapResult {
  double packet_phi;
  double timer_phi;
};

GapResult measure(const exper::Experiment& ex, core::Target target,
                  std::uint64_t k) {
  double phis[2] = {0, 0};
  const core::Method methods[2] = {core::Method::kSystematicCount,
                                   core::Method::kSystematicTimer};
  for (int i = 0; i < 2; ++i) {
    exper::CellConfig cfg;
    cfg.method = methods[i];
    cfg.target = target;
    cfg.granularity = k;
    cfg.interval = ex.interval(1024.0);
    cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
    cfg.cache = &ex.binned_cache();
    cfg.replications = 5;
    cfg.base_seed = 7;
    phis[i] = exper::run_cell(cfg).phi_mean();
  }
  return {phis[0], phis[1]};
}

}  // namespace

int main() {
  bench::banner("Ablation A2: burstiness drives the timer-method penalty",
                "Bursty (trains) vs poissonified workload, k=64, 1024s");

  exper::Experiment bursty(bench::kDefaultSeed, 60.0);
  synth::TraceModel poisson_model(
      synth::poissonified(synth::sdsc_hour_config(bench::kDefaultSeed)));
  exper::Experiment poisson(poisson_model.generate());

  TextTable t({"workload", "target", "packet phi", "timer phi",
               "timer/packet ratio"});
  for (auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    for (const auto* which : {"bursty", "poisson"}) {
      const auto& ex = std::string(which) == "bursty" ? bursty : poisson;
      const auto r = measure(ex, target, 64);
      const double ratio = r.timer_phi / std::max(1e-9, r.packet_phi);
      t.add_row({which, core::target_name(target), fmt_double(r.packet_phi, 4),
                 fmt_double(r.timer_phi, 4), fmt_double(ratio, 1)});
      netsample::bench::csv_row({"ablA2", which, core::target_name(target),
                             fmt_double(r.packet_phi, 5),
                             fmt_double(r.timer_phi, 5), fmt_double(ratio, 2)});
    }
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("expected: the timer/packet ratio collapses for packet size");
  bench::note("when trains are removed, and shrinks for interarrival time.");
  return 0;
}
