// Extension E6: a rigorous version of the paper's ordering claim.
//
// The paper: correlated samples inhibit "statistically precise statements
// about the superiority of one sampling method over another", but still
// "allow us to easily order sampling methods". We quantify the ordering
// with the Mann-Whitney rank-sum test on independent phi replications:
// for every pair of methods, is one stochastically better, and at what
// significance?
#include "bench_common.h"
#include "stats/mannwhitney.h"

using namespace netsample;

int main() {
  bench::banner("Extension E6: Mann-Whitney ordering of sampling methods",
                "Pairwise rank-sum tests on 12 phi replications per method");

  exper::Experiment ex(bench::kDefaultSeed, 60.0);

  const core::Method methods[] = {
      core::Method::kSystematicCount, core::Method::kStratifiedCount,
      core::Method::kSimpleRandom, core::Method::kSystematicTimer,
      core::Method::kStratifiedTimer};
  const char* short_names[] = {"sys", "strat", "rand", "t-sys", "t-strat"};

  for (auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    std::cout << "\ntarget: " << core::target_name(target)
              << " (k=64, 1024s interval)\n";
    std::vector<std::vector<double>> phis;
    for (auto m : methods) {
      exper::CellConfig cfg;
      cfg.method = m;
      cfg.target = target;
      cfg.granularity = 64;
      cfg.interval = ex.interval(1024.0);
      cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
      cfg.cache = &ex.binned_cache();
      cfg.replications = 12;
      cfg.base_seed = 1234;
      phis.push_back(exper::run_cell(cfg).phi_values());
    }

    TextTable t({"A vs B", "P(phi_A > phi_B)", "p-value", "verdict @0.05"});
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t j = i + 1; j < 5; ++j) {
        const auto r = stats::mann_whitney_u(phis[i], phis[j]);
        std::string verdict = "indistinguishable";
        if (r.significance < 0.05) {
          verdict = r.prob_a_greater > 0.5
                        ? std::string(short_names[j]) + " better"
                        : std::string(short_names[i]) + " better";
        }
        t.add_row({std::string(short_names[i]) + " vs " + short_names[j],
                   fmt_double(r.prob_a_greater, 3),
                   fmt_double(r.significance, 4), verdict});
        bench::csv_row({"extE6", core::target_name(target), short_names[i],
                    short_names[j], fmt_double(r.prob_a_greater, 4),
                    fmt_double(r.significance, 5)});
      }
    }
    t.print(std::cout);
  }
  std::cout << "\n";
  bench::note("expected: every packet-vs-timer pair separates decisively");
  bench::note("(p < 0.001, effect size ~1); packet-vs-packet pairs are");
  bench::note("statistically indistinguishable -- the paper's two findings");
  bench::note("as formal hypothesis tests.");
  return 0;
}
