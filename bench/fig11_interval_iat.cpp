// Figure 11: mean systematic phi scores for the interarrival time
// distribution as a function of elapsed time (minutes).
#include "interval_sweep.h"

int main(int argc, char** argv) {
  const auto options = netsample::tools::parse_figure_args(
      argc, argv, "fig11_interval_iat [--jobs N] [--pcap FILE] [--metrics-out FILE] [--trace-out FILE]");
  return netsample::bench::run_interval_sweep(
      netsample::core::Target::kInterarrivalTime, "fig11",
      "Figure 11 (paper: systematic phi vs elapsed time, interarrival)", options);
}
