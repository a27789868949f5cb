// Figure 7: the means of Figure 6's boxplots -- mean systematic phi for the
// packet-size target vs sampling fraction (1024-second interval).
#include <algorithm>

#include "bench_common.h"
#include "tools/cli_args.h"

using namespace netsample;

int main(int argc, char** argv) {
  const auto options = tools::parse_figure_args(
      argc, argv,
      "fig07_phi_means [--jobs N] [--pcap FILE] "
      "[--metrics-out FILE] [--trace-out FILE]");
  bench::banner("Figure 7 (paper: means of the Figure 6 boxplots)",
                "Mean systematic phi, packet size, 1024s interval");

  exper::Experiment ex = tools::figure_experiment(options, bench::kDefaultSeed);

  exper::CellConfig cfg;
  cfg.method = core::Method::kSystematicCount;
  cfg.target = core::Target::kPacketSize;
  cfg.interval = ex.interval(1024.0);
  cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
  cfg.cache = &ex.binned_cache();

  // Closed-form prediction for an unbiased sampler (core/theory.h): the
  // measured systematic curve should track it, since systematic/count is
  // effectively unbiased on this traffic.
  const std::size_t bins =
      core::make_target_histogram(cfg.target).bin_count();

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

  TextTable t({"1/x", "mean phi", "theory E[phi]", "mean n", "curve"});
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const std::uint64_t k = ladder[i];
    const auto& cell = cells[i];
    const double phi = cell.phi_mean();
    const double theory = core::expected_phi(
        bins, static_cast<std::uint64_t>(
                  std::max(1.0, cell.mean_sample_size())));
    std::string bar(static_cast<std::size_t>(phi * 150.0), '*');
    t.add_row({fmt_fraction(k), fmt_double(phi, 4), fmt_double(theory, 4),
               fmt_double(cell.mean_sample_size(), 0), bar});
    netsample::bench::csv_row({"fig07", std::to_string(k), fmt_double(phi, 5),
                           fmt_double(theory, 5),
                           fmt_double(cell.mean_sample_size(), 1)});
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("expected shape: monotone growth, near zero at 1/4; the");
  bench::note("measured curve tracks the closed-form multinomial prediction");
  bench::note("(unbiasedness of packet-count sampling, quantified).");
  tools::write_obs_outputs(options);
  return 0;
}
