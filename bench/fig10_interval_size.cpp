// Figure 10: mean systematic phi scores for the packet size distribution as
// a function of elapsed time (minutes), at several sampling fractions.
#include "interval_sweep.h"

int main(int argc, char** argv) {
  const auto options = netsample::tools::parse_figure_args(
      argc, argv, "fig10_interval_size [--jobs N] [--pcap FILE] [--metrics-out FILE] [--trace-out FILE]");
  return netsample::bench::run_interval_sweep(
      netsample::core::Target::kPacketSize, "fig10",
      "Figure 10 (paper: systematic phi vs elapsed time, packet size)", options);
}
