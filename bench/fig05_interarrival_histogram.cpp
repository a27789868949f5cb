// Figure 5: the interarrival-time distribution (five paper bins) of
// systematic samples at five granularities over a 1024-second interval;
// the paper's legend reports each sample's phi score.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/samplers.h"
#include "core/targets.h"

using namespace netsample;

int main() {
  bench::banner(
      "Figure 5 (paper: interarrival histogram at 5 granularities)",
      "Systematic sampling, 1024s interval, bins <800/<1200/<2400/<3600/>=3600us");

  exper::Experiment ex(bench::kDefaultSeed, 60.0);
  const auto interval = ex.interval(1024.0);
  const auto target = core::Target::kInterarrivalTime;
  const auto population = core::bin_population(interval, target);
  const auto pop_props = population.proportions();

  TextTable t({"series", "n", "<800", "[800,1200)", "[1200,2400)",
               "[2400,3600)", ">=3600", "phi"});
  auto props_row = [&](const std::string& name, const stats::Histogram& h,
                       double phi) {
    const auto p = h.proportions();
    t.add_row({name, fmt_count(h.total()), fmt_double(p[0], 3),
               fmt_double(p[1], 3), fmt_double(p[2], 3), fmt_double(p[3], 3),
               fmt_double(p[4], 3), fmt_double(phi, 4)});
    netsample::bench::csv_row({"fig05", name, fmt_double(p[0], 4), fmt_double(p[1], 4),
                           fmt_double(p[2], 4), fmt_double(p[3], 4),
                           fmt_double(p[4], 4), fmt_double(phi, 5)});
  };
  props_row("population", population, 0.0);

  for (std::uint64_t k : {4ULL, 64ULL, 256ULL, 4096ULL, 32768ULL}) {
    const auto sample = core::draw(
        interval, {.method = core::Method::kSystematicCount, .granularity = k});
    const auto observed = core::bin_sample(sample, target);
    const auto m = core::score_sample(observed, population,
                                      1.0 / static_cast<double>(k));
    props_row(fmt_fraction(k), observed, m.phi);
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("paper: 'the increasing phi-value scores shown in the legend");
  bench::note("reflect the divergence in the sample accuracy as the sampling");
  bench::note("fraction decreases.'");
  return 0;
}
