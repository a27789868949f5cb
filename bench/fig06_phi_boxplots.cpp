// Figure 6: boxplots of systematic-sampling phi scores for the packet-size
// target as a function of sampling fraction (1024-second interval).
// Replications vary the start offset within the data set, up to 50 per
// granularity as in the paper.
#include <algorithm>

#include "bench_common.h"
#include "tools/cli_args.h"

using namespace netsample;

int main(int argc, char** argv) {
  const auto options = tools::parse_figure_args(
      argc, argv,
      "fig06_phi_boxplots [--jobs N] [--pcap FILE] "
      "[--metrics-out FILE] [--trace-out FILE]");
  bench::banner("Figure 6 (paper: boxplots of systematic phi scores)",
                "Packet size, 1024s interval, offset-replicated boxplots");

  exper::Experiment ex = tools::figure_experiment(options, bench::kDefaultSeed);

  exper::CellConfig cfg;
  cfg.method = core::Method::kSystematicCount;
  cfg.target = core::Target::kPacketSize;
  cfg.interval = ex.interval(1024.0);
  cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
  cfg.cache = &ex.binned_cache();

  const auto ladder = exper::granularity_ladder(4, 32768);
  std::vector<exper::GridTask> tasks;
  tasks.reserve(ladder.size());
  for (std::uint64_t k : ladder) {
    cfg.granularity = k;
    cfg.replications = static_cast<int>(std::min<std::uint64_t>(k, 50));
    tasks.push_back({cfg, 0});
  }
  exper::ParallelRunner runner(options.jobs);
  const auto cells = runner.run(tasks, cfg.base_seed);

  TextTable t({"1/x", "reps", "min", "q1", "median", "q3", "max",
               "boxplot [0, 0.45]"});
  const double axis_max = 0.45;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const std::uint64_t k = ladder[i];
    const auto& cell = cells[i];
    const auto b = cell.phi_boxplot();
    t.add_row({fmt_fraction(k), std::to_string(cell.config.replications),
               fmt_double(b.min, 4), fmt_double(b.q1, 4),
               fmt_double(b.median, 4), fmt_double(b.q3, 4),
               fmt_double(b.max, 4),
               stats::boxplot_ascii(b, 0.0, axis_max, 44)});
    netsample::bench::csv_row({"fig06", std::to_string(k), fmt_double(b.min, 5),
                           fmt_double(b.q1, 5), fmt_double(b.median, 5),
                           fmt_double(b.q3, 5), fmt_double(b.max, 5),
                           fmt_double(b.mean, 5)});
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("paper: 'two clear effects of decreasing the sampling fraction:");
  bench::note("increasing values ... and increasing variance within the set");
  bench::note("of samples for each method.'");
  tools::write_obs_outputs(options);
  return 0;
}
