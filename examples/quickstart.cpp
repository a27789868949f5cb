// Quickstart: the library in ~60 lines.
//
//   1. obtain a parent population (here: the calibrated synthetic SDSC hour;
//      load your own capture with pcap::read_trace instead),
//   2. sample it with an operational discipline (systematic 1-in-50, the
//      NSFNET setting),
//   3. compare the sampled packet-size distribution to the truth with the
//      paper's phi metric,
//   4. decide whether the sample would pass a chi-squared goodness-of-fit
//      test at the 0.05 level.
#include <iostream>

#include "core/metrics.h"
#include "core/samplers.h"
#include "core/targets.h"
#include "synth/presets.h"
#include "util/format.h"

using namespace netsample;

int main() {
  // 1. Parent population: one synthetic hour of SDSC -> NSFNET traffic.
  //    (Real captures: auto trace = pcap::read_trace("capture.pcap").value();)
  synth::TraceModel model(synth::sdsc_minutes_config(10.0, /*seed=*/42));
  const trace::Trace population_trace = model.generate();
  const auto view = population_trace.view();
  std::cout << "population: " << fmt_count(view.size()) << " packets over "
            << fmt_double(view.duration().to_seconds(), 1) << " s\n";

  // 2. Sample every 50th packet, exactly as the T3 NSFNET backbone did.
  const core::Sample sample = core::draw(
      view, {.method = core::Method::kSystematicCount, .granularity = 50});
  std::cout << "sample:     " << fmt_count(sample.size()) << " packets ("
            << fmt_double(100.0 * sample.fraction(), 2) << "% of traffic)\n\n";

  // 3. Score the sampled packet-size distribution against the population.
  const auto target = core::Target::kPacketSize;
  const auto population_hist = core::bin_population(view, target);
  const auto sample_hist = core::bin_sample(sample, target);
  const auto metrics =
      core::score_sample(sample_hist, population_hist, 1.0 / 50.0);

  std::cout << "packet-size distribution (proportions per paper bin):\n";
  const auto pp = population_hist.proportions();
  const auto sp = sample_hist.proportions();
  for (std::size_t b = 0; b < population_hist.bin_count(); ++b) {
    std::cout << "  " << population_hist.bin_label(b)
              << "  population=" << fmt_double(pp[b], 4)
              << "  sample=" << fmt_double(sp[b], 4) << "\n";
  }

  std::cout << "\nphi            = " << fmt_double(metrics.phi, 5)
            << "   (0 = perfect reflection of the population)\n"
            << "chi2           = " << fmt_double(metrics.chi2, 3) << " with "
            << fmt_double(metrics.dof, 0) << " dof\n"
            << "significance   = " << fmt_double(metrics.significance, 4) << "\n"
            << "cost (l1 pkts) = " << fmt_double(metrics.cost, 0) << "\n";

  // 4. The operational question.
  if (metrics.significance >= 0.05) {
    std::cout << "\nPASS: a chi-squared test at the 0.05 level accepts this "
                 "sample\nas drawn from the population -- consistent with the "
                 "paper's\nfinding for the NSFNET's 1/50 systematic sampling.\n";
    return 0;
  }
  std::cout << "\nNote: this replication would be rejected at the 0.05 level "
               "(expected for ~5% of replications).\n";
  return 0;
}
