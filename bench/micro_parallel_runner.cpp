// Speedup curve of the parallel experiment engine.
//
// Runs the same granularity sweep (systematic, packet size, full interval)
// on a synthetic ~1M-packet trace at --jobs 1/2/4/8 and reports wall-clock
// per sweep. The 1-thread row is the serial baseline; the ratio of the rows
// is the speedup curve. A second group measures raw ThreadPool dispatch
// overhead so pool cost can be separated from experiment cost.
//
// The trace is generated once and shared read-only across all workers (the
// engine hands out TraceView spans, never copies), so memory stays flat as
// jobs grow.
#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "exper/experiment.h"
#include "exper/parallel.h"
#include "util/thread_pool.h"

namespace {

using namespace netsample;

// ~40 synthetic minutes ~= 1M packets at the calibrated SDSC rate.
const exper::Experiment& million_packet_experiment() {
  static const exper::Experiment* ex = new exper::Experiment(23, 40.0);
  return *ex;
}

void BM_ParallelSweep(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const auto& ex = million_packet_experiment();

  exper::CellConfig base;
  base.method = core::Method::kSystematicCount;
  base.target = core::Target::kPacketSize;
  base.interval = ex.full();
  base.mean_interarrival_usec = ex.mean_interarrival_usec();
  base.replications = 5;
  base.base_seed = 23;
  // Cache construction happens once, outside the timing loop.
  base.cache = &ex.binned_cache();
  const auto ladder = exper::granularity_ladder(4, 1024);

  exper::ParallelRunner runner(jobs);
  for (auto _ : state) {
    auto cells = runner.sweep_granularity(base, ladder);
    benchmark::DoNotOptimize(cells);
  }
  state.counters["jobs"] = jobs;
  state.counters["cells"] = static_cast<double>(ladder.size());
  state.counters["packets"] = static_cast<double>(ex.population_size());
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_MethodGrid(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const auto& ex = million_packet_experiment();

  std::vector<exper::GridTask> tasks;
  for (auto m : {core::Method::kSystematicCount, core::Method::kStratifiedCount,
                 core::Method::kSimpleRandom, core::Method::kSystematicTimer,
                 core::Method::kStratifiedTimer}) {
    for (std::uint64_t k : exper::granularity_ladder(16, 256)) {
      exper::GridTask t;
      t.config.method = m;
      t.config.target = core::Target::kInterarrivalTime;
      t.config.granularity = k;
      t.config.interval = ex.full();
      t.config.mean_interarrival_usec = ex.mean_interarrival_usec();
      t.config.replications = 3;
      t.config.cache = &ex.binned_cache();
      tasks.push_back(t);
    }
  }

  exper::ParallelRunner runner(jobs);
  for (auto _ : state) {
    auto cells = runner.run(tasks, 23);
    benchmark::DoNotOptimize(cells);
  }
  state.counters["jobs"] = jobs;
  state.counters["cells"] = static_cast<double>(tasks.size());
}
BENCHMARK(BM_MethodGrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_ThreadPoolDispatchOverhead(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  util::ThreadPool pool(threads);
  std::vector<std::future<int>> futures;
  futures.reserve(1024);
  for (auto _ : state) {
    futures.clear();
    for (int i = 0; i < 1024; ++i) {
      futures.push_back(pool.submit([i]() { return i; }));
    }
    int sum = 0;
    for (auto& f : futures) sum += f.get();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ThreadPoolDispatchOverhead)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
