// Designing a sampling plan (Section 5.1): how many packets must a monitor
// examine, and at what fraction, to estimate traffic parameters to a target
// accuracy? Walks Cochran's formula forward and backward and cross-checks
// the design against an actual sampling run.
#include <iostream>

#include "core/design.h"
#include "core/samplers.h"
#include "core/targets.h"
#include "stats/descriptive.h"
#include "synth/presets.h"
#include "util/format.h"

using namespace netsample;

int main() {
  std::cout << "Sampling plan design (Cochran, Section 5.1)\n"
            << "--------------------------------------------\n";

  synth::TraceModel model(synth::sdsc_minutes_config(15.0, 99));
  const auto trace = model.generate();
  const auto view = trace.view();

  // Population parameters of the estimand (mean packet size).
  stats::MomentAccumulator acc;
  for (const auto& p : view) acc.add(static_cast<double>(p.size));
  const double mu = acc.mean();
  const double sigma = acc.population_stddev();
  std::cout << "population: " << fmt_count(view.size())
            << " packets, mean size " << fmt_double(mu, 1) << " B, sd "
            << fmt_double(sigma, 1) << "\n\n";

  // Forward: required sample sizes for a grid of accuracy/confidence goals.
  TextTable plans({"accuracy", "confidence", "z", "n (infinite)", "n (FPC)",
                   "fraction"});
  for (double r : {10.0, 5.0, 2.0, 1.0}) {
    for (double conf : {0.90, 0.95, 0.99}) {
      const auto p = core::plan_sample_size(mu, sigma, r, conf, view.size());
      plans.add_row({"+-" + fmt_double(r, 0) + "%", fmt_double(conf * 100, 0) + "%",
                     fmt_double(p.z, 3), fmt_count(p.n), fmt_count(p.n_fpc),
                     fmt_double(100.0 * p.sampling_fraction, 3) + "%"});
    }
  }
  plans.print(std::cout);

  // Backward: what accuracy does the operational 1/50 deliver?
  const std::uint64_t n50 = view.size() / 50;
  const double r50 = core::achievable_accuracy_pct(mu, sigma, n50, 0.95);
  std::cout << "\noperational 1/50 sampling -> n = " << fmt_count(n50)
            << " -> +-" << fmt_double(r50, 2)
            << "% on the mean at 95% confidence\n";

  // Empirical check: draw many 1/50 stratified samples and count how often
  // the sample mean lands within the predicted interval.
  int within = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto sample =
        core::draw(view, {.method = core::Method::kStratifiedCount,
                          .granularity = 50,
                          .seed = static_cast<std::uint64_t>(1000 + t)});
    stats::MomentAccumulator s;
    for (auto i : sample.indices) s.add(static_cast<double>(view[i].size));
    const double err = 100.0 * std::abs(s.mean() - mu) / mu;
    if (err <= r50) ++within;
  }
  std::cout << "empirical: " << within << "/" << trials
            << " sample means within +-" << fmt_double(r50, 2)
            << "% (theory: ~95%)\n";
  return 0;
}
