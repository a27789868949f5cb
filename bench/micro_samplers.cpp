// Microbenchmarks: per-packet cost of every sampling discipline.
//
// The operational question behind the paper's Section 2: the selection code
// runs in the forwarding path of the T3 subsystems, so its per-packet cost
// is what bounds the switching capacity impact.
//
// The BM_Kernel* group times select_indices (core/select_indices.h), the
// one implementation of each paper method, over the whole trace at k = 50
// and 1024 (and the ladder's ends, 2 and 32768, where a method's cost
// depends on k); items/sec is offered packets. The 2-minute trace holds
// 49.7k packets, about six blocks of the batched RNG kernels' lane source
// (core/simd/lanes.h), so BM_Kernel*Hour repeats the two batched methods
// over the synthetic hour's 1.5M+ packets, the views perfbench's grids
// select from. The deprecated streaming classes are timed end to end only
// by micro_sweep's legacy column.
//
// BM_StreamEngine runs stream::Engine in the shape of one serve session:
// 10 lanes (5 replications x both targets) at k = 50, a 30 s window with a
// 10 s stride, fed in 64- or 512-packet chunks, snapshot scoring included.
// Items/sec is packets fed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/select_indices.h"
#include "core/trace_cache.h"
#include "exper/runner.h"
#include "stream/engine.h"
#include "synth/presets.h"

namespace {

using namespace netsample;

const trace::Trace& bench_trace() {
  static const trace::Trace t =
      synth::TraceModel(synth::sdsc_minutes_config(2.0, 23)).generate();
  return t;
}

const core::BinnedTraceCache& bench_cache() {
  static const core::BinnedTraceCache cache(bench_trace().view());
  return cache;
}

/// The synthetic hour: 1.5M+ packets, built on first use.
const core::BinnedTraceCache& hour_cache() {
  static const trace::Trace t =
      synth::TraceModel(synth::sdsc_hour_config(23)).generate();
  static const core::BinnedTraceCache cache(t.view());
  return cache;
}

core::SamplerSpec kernel_spec(core::Method m, std::uint64_t k,
                              std::size_t population = bench_trace().size()) {
  core::SamplerSpec spec;
  spec.method = m;
  spec.granularity = k;
  spec.population = population;
  spec.mean_interarrival_usec = 2358.0;
  spec.seed = 7;
  return spec;
}

void run_kernel(benchmark::State& state, const core::SamplerSpec& spec,
                const core::BinnedTraceCache& cache = bench_cache()) {
  std::size_t selected = 0;
  for (auto _ : state) {
    auto indices = core::select_indices(spec, cache, 0, cache.size());
    selected += indices.size();
    benchmark::DoNotOptimize(indices);
    benchmark::DoNotOptimize(selected);
  }
  // Offered (not selected) packets.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cache.size()));
}

void BM_KernelSystematicCount(benchmark::State& state) {
  run_kernel(state, kernel_spec(core::Method::kSystematicCount,
                                static_cast<std::uint64_t>(state.range(0))));
}
BENCHMARK(BM_KernelSystematicCount)->Arg(50)->Arg(1024);

void BM_KernelStratifiedCount(benchmark::State& state) {
  run_kernel(state, kernel_spec(core::Method::kStratifiedCount,
                                static_cast<std::uint64_t>(state.range(0))));
}
BENCHMARK(BM_KernelStratifiedCount)->Arg(2)->Arg(50)->Arg(1024)->Arg(32768);

void BM_KernelSimpleRandom(benchmark::State& state) {
  run_kernel(state, kernel_spec(core::Method::kSimpleRandom,
                                static_cast<std::uint64_t>(state.range(0))));
}
BENCHMARK(BM_KernelSimpleRandom)->Arg(2)->Arg(50)->Arg(1024)->Arg(32768);

void BM_KernelStratifiedCountHour(benchmark::State& state) {
  const auto& cache = hour_cache();
  run_kernel(state,
             kernel_spec(core::Method::kStratifiedCount,
                         static_cast<std::uint64_t>(state.range(0)),
                         cache.size()),
             cache);
}
BENCHMARK(BM_KernelStratifiedCountHour)
    ->Arg(2)->Arg(50)->Arg(1024)->Arg(32768)
    ->Unit(benchmark::kMicrosecond);

void BM_KernelSimpleRandomHour(benchmark::State& state) {
  const auto& cache = hour_cache();
  run_kernel(state,
             kernel_spec(core::Method::kSimpleRandom,
                         static_cast<std::uint64_t>(state.range(0)),
                         cache.size()),
             cache);
}
BENCHMARK(BM_KernelSimpleRandomHour)
    ->Arg(2)->Arg(50)->Arg(1024)->Arg(32768)
    ->Unit(benchmark::kMicrosecond);

void BM_KernelSystematicTimer(benchmark::State& state) {
  run_kernel(state, kernel_spec(core::Method::kSystematicTimer,
                                static_cast<std::uint64_t>(state.range(0))));
}
BENCHMARK(BM_KernelSystematicTimer)->Arg(2)->Arg(50)->Arg(1024);

void BM_KernelStratifiedTimer(benchmark::State& state) {
  run_kernel(state, kernel_spec(core::Method::kStratifiedTimer,
                                static_cast<std::uint64_t>(state.range(0))));
}
BENCHMARK(BM_KernelStratifiedTimer)->Arg(2)->Arg(50)->Arg(1024);

void BM_StreamEngine(benchmark::State& state) {
  constexpr core::Method kMethods[] = {
      core::Method::kSystematicCount, core::Method::kStratifiedCount,
      core::Method::kSimpleRandom, core::Method::kSystematicTimer,
      core::Method::kStratifiedTimer};
  const core::Method method = kMethods[state.range(0)];
  const auto chunk = static_cast<std::size_t>(state.range(1));
  const auto packets = bench_trace().view().packets();
  exper::CellConfig cfg;
  cfg.method = method;
  cfg.granularity = 50;
  cfg.interval = bench_trace().view();
  cfg.mean_interarrival_usec = 2358.0;
  cfg.replications = 5;
  cfg.base_seed = 7;
  std::vector<stream::LaneSpec> lanes;
  for (const auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    cfg.target = target;
    for (auto& lane : stream::lanes_for_cell(cfg)) lanes.push_back(lane);
  }
  stream::EngineOptions options;
  options.window = MicroDuration::from_seconds(30.0);
  options.stride = MicroDuration::from_seconds(10.0);
  std::size_t scored = 0;
  for (auto _ : state) {
    stream::Engine engine(lanes, options);
    engine.on_snapshot(
        [&](const stream::WindowScore& ws) { scored += ws.lanes.size(); });
    for (std::size_t i = 0; i < packets.size(); i += chunk) {
      engine.feed(packets.subspan(i, std::min(chunk, packets.size() - i)));
    }
    scored += engine.finish().lanes.size();
    benchmark::DoNotOptimize(scored);
  }
  state.SetLabel(core::method_name(method));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_StreamEngine)->Apply([](benchmark::internal::Benchmark* b) {
  for (int m = 0; m < 5; ++m) {
    for (const int chunk : {64, 512}) b->Args({m, chunk});
  }
});

void BM_CacheConstruction(benchmark::State& state) {
  const auto view = bench_trace().view();
  for (auto _ : state) {
    core::BinnedTraceCache cache(view);
    benchmark::DoNotOptimize(cache.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(view.size()));
}
BENCHMARK(BM_CacheConstruction)->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    synth::TraceModel model(
        synth::sdsc_minutes_config(1.0, static_cast<std::uint64_t>(state.iterations())));
    auto t = model.generate();
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
