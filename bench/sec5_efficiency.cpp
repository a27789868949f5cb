// Section 5 (methodological background): Cochran's efficiency orderings,
// verified empirically on controlled populations.
//
//   * randomly ordered population  -> systematic ~ stratified ~ simple random
//   * population with linear trend -> Var(stratified) < Var(systematic)
//                                     < Var(simple random)
//
// Efficiency here is the variance of the sample-mean estimator across
// replications, the metric the cited literature uses.
#include <algorithm>
#include <numeric>

#include "bench_common.h"
#include "core/samplers.h"
#include "util/rng.h"

using namespace netsample;

namespace {

trace::Trace values_as_trace(const std::vector<double>& values) {
  std::vector<trace::PacketRecord> v;
  v.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{i * 1000};
    p.size = static_cast<std::uint16_t>(values[i]);
    v.push_back(p);
  }
  return trace::Trace(std::move(v));
}

double variance_of_mean(const trace::Trace& t, core::Method method,
                        std::uint64_t k, int replications) {
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(replications));
  for (int r = 0; r < replications; ++r) {
    core::SamplerSpec spec;
    spec.method = method;
    spec.granularity = k;
    spec.population = t.size();
    spec.seed = 500 + static_cast<std::uint64_t>(r) * 7919;
    if (method == core::Method::kSystematicCount) {
      spec.offset = static_cast<std::uint64_t>(r) % k;
    }
    const auto sample = core::draw(t.view(), spec);
    double sum = 0.0;
    for (auto i : sample.indices) sum += static_cast<double>(t[i].size);
    if (!sample.indices.empty()) {
      means.push_back(sum / static_cast<double>(sample.indices.size()));
    }
  }
  double m = std::accumulate(means.begin(), means.end(), 0.0) /
             static_cast<double>(means.size());
  double var = 0.0;
  for (double x : means) var += (x - m) * (x - m);
  return var / static_cast<double>(means.size());
}

}  // namespace

int main() {
  bench::banner("Section 5 (paper: efficiency of sampling strategies)",
                "Variance of the mean estimator on controlled populations");

  const std::size_t n = 100000;
  const std::uint64_t k = 100;
  const int reps = 300;

  // Linear trend population: values 100 .. 1100 plus small noise.
  Rng rng(5);
  std::vector<double> trended(n);
  for (std::size_t i = 0; i < n; ++i) {
    trended[i] = 100.0 + 1000.0 * static_cast<double>(i) / n +
                 rng.normal(0.0, 5.0);
  }
  // Randomly ordered population: the same values, shuffled.
  std::vector<double> shuffled = trended;
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.uniform_below(i + 1)]);
  }

  const auto t_trend = values_as_trace(trended);
  const auto t_rand = values_as_trace(shuffled);

  TextTable t({"population", "Var[mean] systematic", "Var[mean] stratified",
               "Var[mean] simple-random"});
  for (const auto* which : {"random order", "linear trend"}) {
    const auto& tr = std::string(which) == "linear trend" ? t_trend : t_rand;
    const double v_sys =
        variance_of_mean(tr, core::Method::kSystematicCount, k, reps);
    const double v_str =
        variance_of_mean(tr, core::Method::kStratifiedCount, k, reps);
    const double v_ran =
        variance_of_mean(tr, core::Method::kSimpleRandom, k, reps);
    t.add_row({which, fmt_double(v_sys, 3), fmt_double(v_str, 3),
               fmt_double(v_ran, 3)});
    bench::csv_row({"sec5", which, fmt_double(v_sys, 4), fmt_double(v_str, 4),
                fmt_double(v_ran, 4)});
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("paper/Cochran: random order -> all three equivalent;");
  bench::note("linear trend -> stratified < systematic < simple random");
  bench::note("(systematic error is one shared offset; stratified averages");
  bench::note("B independent offsets; random ignores the structure).");
  return 0;
}
