// Provider billing scenario (Section 5.2's motivation for the cost metric).
//
// A service provider charges customers by traffic volume but only *samples*
// packets. For each customer (here: destination network), the provider's
// estimate is (sampled packets) * k. The l1 distance between estimated and
// true per-customer volumes is the money at stake: overcharges annoy
// customers, undercharges lose revenue. We quantify both across sampling
// granularities and disciplines.
#include <algorithm>
#include <iostream>
#include <map>

#include "core/samplers.h"
#include "core/targets.h"
#include "net/ipv4.h"
#include "synth/presets.h"
#include "util/format.h"

using namespace netsample;

namespace {

using CustomerVolumes = std::map<net::NetworkNumber, double>;

CustomerVolumes count_by_customer(std::span<const trace::PacketRecord> packets,
                                  double scale) {
  CustomerVolumes v;
  for (const auto& p : packets) {
    v[net::NetworkNumber::of(p.dst)] += scale;
  }
  return v;
}

struct BillingOutcome {
  double overcharge{0};   // packets billed but never sent
  double undercharge{0};  // packets sent but not billed
  double l1() const { return overcharge + undercharge; }
};

BillingOutcome settle(const CustomerVolumes& truth, const CustomerVolumes& est) {
  BillingOutcome out;
  for (const auto& [net, actual] : truth) {
    const auto it = est.find(net);
    const double billed = it == est.end() ? 0.0 : it->second;
    if (billed > actual) {
      out.overcharge += billed - actual;
    } else {
      out.undercharge += actual - billed;
    }
  }
  for (const auto& [net, billed] : est) {
    if (truth.find(net) == truth.end()) out.overcharge += billed;
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "Provider billing under sampling (Section 5.2 cost metric)\n"
            << "----------------------------------------------------------\n";

  synth::TraceModel model(synth::sdsc_minutes_config(10.0, 7));
  const auto trace = model.generate();
  const auto view = trace.view();
  const auto truth = count_by_customer(view.packets(), 1.0);
  std::cout << "billing period: " << fmt_count(view.size()) << " packets to "
            << truth.size() << " customer networks\n\n";

  TextTable t({"discipline", "1/k", "billed total", "overcharge",
               "undercharge", "l1 (pkts)", "l1 % of traffic"});
  for (std::uint64_t k : {10ULL, 50ULL, 500ULL, 5000ULL}) {
    for (auto method :
         {core::Method::kSystematicCount, core::Method::kStratifiedCount}) {
      core::SamplerSpec spec;
      spec.method = method;
      spec.granularity = k;
      spec.population = view.size();
      spec.seed = 13;
      const auto sample = core::draw(view, spec);
      const auto billed = count_by_customer(sample.packets(),
                                            static_cast<double>(k));
      const auto outcome = settle(truth, billed);
      double billed_total = 0;
      for (const auto& [n, v] : billed) billed_total += v;
      t.add_row({core::method_name(method), std::to_string(k),
                 fmt_count(static_cast<std::uint64_t>(billed_total)),
                 fmt_double(outcome.overcharge, 0),
                 fmt_double(outcome.undercharge, 0),
                 fmt_double(outcome.l1(), 0),
                 fmt_double(100.0 * outcome.l1() /
                                static_cast<double>(view.size()),
                            2)});
    }
  }
  t.print(std::cout);

  std::cout
      << "\nReading: the l1 distance is the paper's `cost` metric at\n"
         "population scale. A provider picks the cheapest sampling rate whose\n"
         "l1 stays below the revenue it is willing to put at risk; note how\n"
         "error grows as the sampling fraction falls, and how the two packet-\n"
         "triggered disciplines are interchangeable (the paper's result 2).\n";
  return 0;
}
