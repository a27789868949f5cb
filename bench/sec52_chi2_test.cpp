// Section 6 chi-squared experiment: systematically sampling every fiftieth
// packet, across all 50 possible start offsets, how many replications does
// a chi-squared test at the 0.05 level reject?
//
// Paper: "only two or three out of the fifty possible replications produced
// chi-squared values that would convince a statistician to reject the
// hypothesis that they were produced by the original distribution."
#include <algorithm>

#include "bench_common.h"
#include "core/metrics.h"
#include "core/samplers.h"
#include "core/targets.h"

using namespace netsample;

int main() {
  bench::banner("Section 6 (paper: chi-squared test of systematic 1/50)",
                "All 50 start-offset replications, both targets, alpha=0.05");

  exper::Experiment ex(bench::kDefaultSeed, 60.0);
  const auto interval = ex.full();

  TextTable t({"target", "replications", "rejected @0.05", "paper",
               "min sig", "median-ish sig"});
  for (auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    const auto layout = core::make_target_histogram(target);
    const auto population =
        core::bin_values(core::population_values(interval, target), layout);

    int rejected = 0;
    std::vector<double> sigs;
    for (std::uint64_t offset = 0; offset < 50; ++offset) {
      const auto sample = core::draw(
          interval, {.method = core::Method::kSystematicCount,
                     .granularity = 50,
                     .offset = offset});
      const auto observed =
          core::bin_values(core::sample_values(sample, target), layout);
      const auto m = core::score_sample(observed, population, 1.0 / 50.0);
      sigs.push_back(m.significance);
      if (m.significance < 0.05) ++rejected;
      netsample::bench::csv_row({"sec52", core::target_name(target),
                             std::to_string(offset),
                             fmt_double(m.significance, 4),
                             fmt_double(m.chi2, 3)});
    }
    std::sort(sigs.begin(), sigs.end());
    t.add_row({core::target_name(target), "50", std::to_string(rejected),
               "2-3", fmt_double(sigs.front(), 4),
               fmt_double(sigs[sigs.size() / 2], 3)});
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("expectation: under the null, ~5% of replications (2-3 of 50)");
  bench::note("fall below the 0.05 significance level.");
  return 0;
}
