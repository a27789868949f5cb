// Figure 9: mean sample phi-value scores as a function of sampling fraction
// for the packet interarrival time distribution, all five methods.
//
// Paper: "Timer-based sampling is particularly bad for assessing
// interarrival times, since one tends to miss bursty periods with many
// packets of relatively small interarrival times."
#include "method_comparison.h"

int main(int argc, char** argv) {
  const auto options = netsample::tools::parse_figure_args(
      argc, argv, "fig09_method_comparison_iat [--jobs N] [--pcap FILE] [--metrics-out FILE] [--trace-out FILE]");
  return netsample::bench::run_method_comparison(
      netsample::core::Target::kInterarrivalTime, "fig09",
      "Figure 9 (paper: mean phi vs fraction, interarrival time, 5 methods)", options);
}
