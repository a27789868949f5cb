// Extension E2 (paper Section 8's closing remark): characterizing the
// sampled source-destination traffic matrix is "more difficult ... mainly
// because of its large size and because many traffic pairs generate small
// amounts of traffic during typical sampling intervals."
//
// We quantify exactly that: as the sampling fraction falls, (a) what
// fraction of the population's network pairs appear in the sample at all
// (coverage), (b) the phi score over the full matrix, and (c) the phi
// score restricted to the top-20 pairs, which stays usable far longer.
#include "bench_common.h"
#include "core/categorical.h"
#include "core/metrics.h"
#include "core/samplers.h"

using namespace netsample;

int main() {
  bench::banner("Extension E2 (paper Sec. 8: sampled net-matrix sparsity)",
                "Coverage and phi of the src-dst network matrix vs fraction");

  exper::Experiment ex(bench::kDefaultSeed, 60.0);
  const auto interval = ex.interval(1024.0);
  const core::CategoricalTarget matrix("net-matrix", core::network_pair_key(),
                                       interval);
  const auto& pop = matrix.population_counts();
  bench::note("population matrix: " + std::to_string(matrix.category_count()) +
              " distinct network pairs over " + fmt_count(interval.size()) +
              " packets");

  // Top-20 sub-matrix population counts.
  const std::size_t top_n = std::min<std::size_t>(20, matrix.category_count());
  const std::vector<double> pop_top(pop.begin(),
                                    pop.begin() + static_cast<long>(top_n));
  std::cout << "\n";

  TextTable t({"1/x", "sample n", "pairs covered", "coverage %", "phi (full)",
               "phi (top-20)"});
  for (std::uint64_t k : exper::granularity_ladder(4, 16384)) {
    const auto sample = core::draw(
        interval, {.method = core::Method::kSystematicCount, .granularity = k});
    const auto obs = matrix.sample_counts(sample);
    const double coverage = matrix.coverage(obs);

    const auto m_full =
        core::score_counts(obs, pop, 1.0 / static_cast<double>(k));
    const std::vector<double> obs_top(obs.begin(),
                                      obs.begin() + static_cast<long>(top_n));
    const auto m_top =
        core::score_counts(obs_top, pop_top, 1.0 / static_cast<double>(k));

    std::size_t covered = 0;
    for (std::size_t i = 0; i < matrix.category_count(); ++i) {
      if (obs[i] > 0) ++covered;
    }
    t.add_row({fmt_fraction(k), fmt_count(sample.size()),
               std::to_string(covered), fmt_double(100.0 * coverage, 1),
               fmt_double(m_full.phi, 4), fmt_double(m_top.phi, 4)});
    bench::csv_row({"extE2", std::to_string(k), fmt_double(coverage, 4),
                fmt_double(m_full.phi, 5), fmt_double(m_top.phi, 5)});
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("expected: coverage collapses with the fraction (the small-cell");
  bench::note("problem), full-matrix phi degrades accordingly, while the");
  bench::note("top-20 sub-matrix remains accurately characterized.");
  return 0;
}
