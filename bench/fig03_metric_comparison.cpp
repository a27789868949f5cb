// Figure 3: all candidate disparity metrics as a function of sampling
// granularity, for systematic samples of a 2048-second interval.
//
// Paper shape: cost grows with granularity; (1 - significance) stays low
// until very coarse granularities; the cost, X^2, and phi metrics "exhibit
// similar behavior", which is why the paper settles on phi.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/samplers.h"
#include "core/targets.h"

using namespace netsample;

int main() {
  bench::banner("Figure 3 (paper: disparity metrics vs sampling granularity)",
                "Systematic sampling of a 2048s interval, packet-size target");

  exper::Experiment ex(bench::kDefaultSeed, 60.0);
  const auto interval = ex.interval(2048.0);
  const auto target = core::Target::kPacketSize;
  const auto layout = core::make_target_histogram(target);
  const auto population =
      core::bin_values(core::population_values(interval, target), layout);

  TextTable t({"1/x", "n", "chi2", "1-sig", "cost", "rcost", "X2",
               "k=sqrt(X2/B)", "phi"});
  for (std::uint64_t k : exper::granularity_ladder(2, 32768)) {
    // Average the metrics over a few start offsets to smooth single-draw noise.
    const int reps = 5;
    core::DisparityMetrics avg;
    avg.significance = 0.0;  // the struct defaults to 1.0
    double n_avg = 0;
    for (int r = 0; r < reps; ++r) {
      const auto sample = core::draw(
          interval, {.method = core::Method::kSystematicCount,
                     .granularity = k,
                     .offset = k * static_cast<std::uint64_t>(r) / reps});
      const auto observed =
          core::bin_values(core::sample_values(sample, target), layout);
      const auto m = core::score_sample(observed, population,
                                        1.0 / static_cast<double>(k));
      avg.chi2 += m.chi2 / reps;
      avg.significance += m.significance / reps;
      avg.cost += m.cost / reps;
      avg.rcost += m.rcost / reps;
      avg.x2 += m.x2 / reps;
      avg.avg_norm_dev += m.avg_norm_dev / reps;
      avg.phi += m.phi / reps;
      n_avg += static_cast<double>(m.sample_n) / reps;
    }
    t.add_row({fmt_fraction(k), fmt_double(n_avg, 0), fmt_double(avg.chi2, 3),
               fmt_double(1.0 - avg.significance, 3), fmt_double(avg.cost, 0),
               fmt_double(avg.rcost, 1), fmt_double(avg.x2, 4),
               fmt_double(avg.avg_norm_dev, 4), fmt_double(avg.phi, 4)});
    netsample::bench::csv_row({"fig03", std::to_string(k), fmt_double(avg.chi2, 4),
                           fmt_double(1.0 - avg.significance, 4),
                           fmt_double(avg.cost, 2), fmt_double(avg.rcost, 3),
                           fmt_double(avg.x2, 5), fmt_double(avg.avg_norm_dev, 5),
                           fmt_double(avg.phi, 5)});
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("expected shape: cost rises with 1/x; phi, k and X2 rise");
  bench::note("together (the three track each other); 1-sig stays near 0");
  bench::note("until the sample is very small.");
  return 0;
}
