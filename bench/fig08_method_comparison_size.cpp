// Figure 8: mean sample phi-value scores as a function of sampling fraction
// for the packet size distribution, all five methods.
#include "method_comparison.h"

int main(int argc, char** argv) {
  const auto options = netsample::tools::parse_figure_args(
      argc, argv, "fig08_method_comparison_size [--jobs N] [--pcap FILE] [--metrics-out FILE] [--trace-out FILE]");
  return netsample::bench::run_method_comparison(
      netsample::core::Target::kPacketSize, "fig08",
      "Figure 8 (paper: mean phi vs fraction, packet size, 5 methods)", options);
}
