// Extension E5 (paper footnote 3): the study's preliminary experiments used
// a FIX-West interexchange trace, and "the results of the two data sets
// were quite similar". We run the Figure 8/9 method comparison on both
// synthetic environments and check that the method *ranking* transfers:
// packet methods indistinguishable, timer methods uniformly worse, on both.
#include <algorithm>

#include "bench_common.h"
#include "synth/presets.h"

using namespace netsample;

namespace {

struct EnvResult {
  double packet_worst;
  double timer_best;
};

EnvResult measure(const exper::Experiment& ex, core::Target target,
                  std::uint64_t k) {
  double packet_worst = 0.0;
  double timer_best = 1e9;
  for (auto m : {core::Method::kSystematicCount, core::Method::kStratifiedCount,
                 core::Method::kSimpleRandom, core::Method::kSystematicTimer,
                 core::Method::kStratifiedTimer}) {
    exper::CellConfig cfg;
    cfg.method = m;
    cfg.target = target;
    cfg.granularity = k;
    cfg.interval = ex.interval(1024.0);
    cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
    cfg.cache = &ex.binned_cache();
    cfg.replications = 5;
    cfg.base_seed = 77;
    const double phi = exper::run_cell(cfg).phi_mean();
    if (core::method_is_timer_driven(m)) {
      timer_best = std::min(timer_best, phi);
    } else {
      packet_worst = std::max(packet_worst, phi);
    }
  }
  return {packet_worst, timer_best};
}

}  // namespace

int main() {
  bench::banner("Extension E5 (paper footnote 3: FIX-West environment)",
                "Method ranking on the SDSC vs FIX-West synthetic workloads");

  exper::Experiment sdsc(bench::kDefaultSeed, 60.0);
  synth::TraceModel fixwest_model(synth::fixwest_minutes_config(60.0, 29));
  exper::Experiment fixwest(fixwest_model.generate());

  bench::note("SDSC hour:    " + fmt_count(sdsc.population_size()) +
              " packets, mean IAT " +
              fmt_double(sdsc.mean_interarrival_usec(), 0) + " us");
  bench::note("FIX-West hour: " + fmt_count(fixwest.population_size()) +
              " packets, mean IAT " +
              fmt_double(fixwest.mean_interarrival_usec(), 0) + " us");
  std::cout << "\n";

  TextTable t({"environment", "target", "1/x", "worst packet phi",
               "best timer phi", "timer/packet"});
  bool ranking_transfers = true;
  for (auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    for (std::uint64_t k : {16ULL, 256ULL}) {
      for (const auto* which : {"SDSC", "FIX-West"}) {
        const auto& ex = std::string(which) == "SDSC" ? sdsc : fixwest;
        const auto r = measure(ex, target, k);
        const double ratio = r.timer_best / std::max(1e-9, r.packet_worst);
        if (ratio < 1.0) ranking_transfers = false;
        t.add_row({which, core::target_name(target), fmt_fraction(k),
                   fmt_double(r.packet_worst, 4), fmt_double(r.timer_best, 4),
                   fmt_double(ratio, 1)});
        bench::csv_row({"extE5", which, core::target_name(target),
                    std::to_string(k), fmt_double(r.packet_worst, 5),
                    fmt_double(r.timer_best, 5)});
      }
    }
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note(std::string("method ranking transfers across environments: ") +
              (ranking_transfers ? "yes" : "NO"));
  bench::note("(paper: 'the results of the two data sets were quite similar')");
  return 0;
}
