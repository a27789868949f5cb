// Figure 4: the packet-size distribution (three paper bins) of systematic
// samples at five granularities over a 1024-second interval, against the
// full population's distribution.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/samplers.h"
#include "core/targets.h"

using namespace netsample;

int main() {
  bench::banner("Figure 4 (paper: packet-size histogram at 5 granularities)",
                "Systematic sampling, 1024s interval, bins <41 / 41-180 / >180");

  exper::Experiment ex(bench::kDefaultSeed, 60.0);
  const auto interval = ex.interval(1024.0);
  const auto target = core::Target::kPacketSize;
  const auto population = core::bin_population(interval, target);
  const auto pop_props = population.proportions();

  TextTable t({"series", "n", "<41", "[41,181)", ">=181", "phi"});
  t.add_row({"population", fmt_count(population.total()),
             fmt_double(pop_props[0], 3), fmt_double(pop_props[1], 3),
             fmt_double(pop_props[2], 3), "0"});
  netsample::bench::csv_row({"fig04", "population", fmt_double(pop_props[0], 4),
                         fmt_double(pop_props[1], 4), fmt_double(pop_props[2], 4),
                         "0"});

  for (std::uint64_t k : {4ULL, 64ULL, 256ULL, 4096ULL, 32768ULL}) {
    const auto sample = core::draw(
        interval, {.method = core::Method::kSystematicCount, .granularity = k});
    const auto observed = core::bin_sample(sample, target);
    const auto props = observed.proportions();
    const auto m = core::score_sample(observed, population,
                                      1.0 / static_cast<double>(k));
    t.add_row({fmt_fraction(k), fmt_count(observed.total()),
               fmt_double(props[0], 3), fmt_double(props[1], 3),
               fmt_double(props[2], 3), fmt_double(m.phi, 4)});
    netsample::bench::csv_row({"fig04", std::to_string(k), fmt_double(props[0], 4),
                           fmt_double(props[1], 4), fmt_double(props[2], 4),
                           fmt_double(m.phi, 5)});
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("expected shape: bin proportions track the population closely");
  bench::note("at fine granularities and drift as 1/x grows; phi grows with");
  bench::note("the drift.");
  return 0;
}
