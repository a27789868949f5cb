// Extension E1 (paper Section 8): apply the phi methodology to a
// proportion-based characterization -- the TCP/UDP well-known service port
// distribution -- exactly as the paper proposes. Mean phi vs sampling
// fraction for all five methods, using the service-port categorical target.
#include "bench_common.h"
#include "core/categorical.h"
#include "core/metrics.h"
#include "core/samplers.h"

using namespace netsample;

int main() {
  bench::banner("Extension E1 (paper Sec. 8: port-distribution target)",
                "phi methodology on the TCP/UDP service proportions");

  exper::Experiment ex(bench::kDefaultSeed, 60.0);
  const auto interval = ex.interval(1024.0);
  const core::CategoricalTarget target("service-port", core::service_port_key(),
                                       interval);
  bench::note("categories (distinct services incl. 'other'): " +
              std::to_string(target.category_count()));
  std::cout << "\n";

  const core::Method methods[] = {
      core::Method::kSystematicCount, core::Method::kStratifiedCount,
      core::Method::kSimpleRandom, core::Method::kSystematicTimer,
      core::Method::kStratifiedTimer};

  TextTable t({"1/x", "systematic", "stratified", "simple-rand", "sys/timer",
               "strat/timer"});
  for (std::uint64_t k : exper::granularity_ladder(4, 16384)) {
    std::vector<std::string> row = {fmt_fraction(k)};
    std::vector<std::string> csv_row = {"extE1", std::to_string(k)};
    for (auto m : methods) {
      double phi_sum = 0.0;
      const int reps = 5;
      for (int r = 0; r < reps; ++r) {
        exper::CellConfig cell;
        cell.method = m;
        cell.granularity = k;
        cell.interval = interval;
        cell.mean_interarrival_usec = ex.mean_interarrival_usec();
        cell.replications = reps;
        cell.base_seed = 303;
        const auto sample =
            core::draw(interval, exper::replication_spec(cell, r));
        const auto obs = target.sample_counts(sample);
        phi_sum += core::score_counts(obs, target.population_counts(),
                                      1.0 / static_cast<double>(k))
                       .phi;
      }
      row.push_back(fmt_double(phi_sum / reps, 4));
      csv_row.push_back(fmt_double(phi_sum / reps, 5));
    }
    t.add_row(std::move(row));
    bench::csv_row(csv_row);
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("expected: the Figure 8/9 picture transfers to proportions --");
  bench::note("packet methods coincide; timer methods are biased (bursts");
  bench::note("belong to specific services, so missing them skews the mix).");
  return 0;
}
