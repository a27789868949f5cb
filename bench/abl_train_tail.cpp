// Ablation A4: sensitivity of the headline result to the train-length tail.
//
// Our default workload draws train lengths geometrically (memoryless); real
// wide-area traffic later proved heavy-tailed. Does the paper's conclusion
// survive heavier tails? We regenerate the hour with Pareto train lengths
// (same per-flow means, shape 1.6 -> infinite variance) and re-measure the
// timer-vs-packet phi gap plus the burstiness (index of dispersion).
#include <algorithm>

#include "bench_common.h"
#include "stats/timeseries.h"
#include "synth/presets.h"
#include "trace/series.h"
#include "trace/trains.h"

using namespace netsample;

namespace {

void measure_env(const char* label, const exper::Experiment& ex,
                 TextTable& t) {
  // Burstiness diagnostics.
  trace::PerSecondSeries series(ex.interval(1024.0));
  const auto counts = series.packet_rates();
  const double idc16 = stats::index_of_dispersion(counts, 16);
  const auto trains =
      trace::train_stats(ex.interval(1024.0), MicroDuration{2400});

  for (auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    double packet_phi = 0.0, timer_phi = 0.0;
    for (auto m :
         {core::Method::kSystematicCount, core::Method::kSystematicTimer}) {
      exper::CellConfig cfg;
      cfg.method = m;
      cfg.target = target;
      cfg.granularity = 64;
      cfg.interval = ex.interval(1024.0);
      cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
      cfg.cache = &ex.binned_cache();
      cfg.replications = 5;
      cfg.base_seed = 7;
      const double phi = exper::run_cell(cfg).phi_mean();
      if (m == core::Method::kSystematicCount) {
        packet_phi = phi;
      } else {
        timer_phi = phi;
      }
    }
    t.add_row({label, core::target_name(target),
               fmt_double(trains.mean_length_packets, 2),
               fmt_double(idc16, 1), fmt_double(packet_phi, 4),
               fmt_double(timer_phi, 4),
               fmt_double(timer_phi / std::max(1e-9, packet_phi), 1)});
    netsample::bench::csv_row({"ablA4", label, core::target_name(target),
                           fmt_double(trains.mean_length_packets, 3),
                           fmt_double(idc16, 2), fmt_double(packet_phi, 5),
                           fmt_double(timer_phi, 5)});
  }
}

}  // namespace

int main() {
  bench::banner("Ablation A4: train-length tail (geometric vs Pareto)",
                "Timer-vs-packet gap at k=64 under heavier burst tails");

  exper::Experiment geometric(bench::kDefaultSeed, 60.0);

  auto pareto_cfg = synth::sdsc_hour_config(bench::kDefaultSeed);
  pareto_cfg.train_length_model = synth::TrainLengthModel::kPareto;
  pareto_cfg.pareto_shape = 1.6;
  exper::Experiment pareto(synth::TraceModel(pareto_cfg).generate());

  TextTable t({"tail", "target", "mean train len", "IDC(16s)", "packet phi",
               "timer phi", "ratio"});
  measure_env("geometric", geometric, t);
  measure_env("pareto-1.6", pareto, t);
  t.print(std::cout);
  std::cout << "\n";
  bench::note("expected: the timer penalty persists (ratios >> 1) under the");
  bench::note("heavy-tailed train model -- the paper's conclusion is not an");
  bench::note("artifact of the memoryless (geometric) train assumption. IDC");
  bench::note("is dominated by the per-second rate modulation in both.");
  return 0;
}
