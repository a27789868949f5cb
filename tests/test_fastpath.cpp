// The fused sweep engine's headline guarantee: over the full fig06-fig11
// grid, run_cell (index kernels over a BinnedTraceCache) produces
// BIT-IDENTICAL CellResults to the streaming oracle run_cell_reference, at
// one thread and at N threads — plus the per-replication index sets agree,
// cells no attached cache covers bin a private one and still match, and
// granularity sweeps never materialize the population.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/select_indices.h"
#include "core/trace_cache.h"
#include "exper/experiment.h"
#include "exper/parallel.h"
#include "exper/runner.h"
#include "obs/metrics.h"

// run_cell_reference and make_sampler are deprecated since v1.3: this suite
// compares the production path against them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

namespace netsample {
namespace {

/// The streaming oracle through the same serial ParallelRunner as the code
/// under test, so every task's seed matches by construction.
std::vector<exper::CellResult> reference_run(
    const std::vector<exper::GridTask>& tasks, std::uint64_t base_seed) {
  exper::RunOptions opts;
  opts.cell_runner = [](const exper::CellConfig& cfg, std::size_t) {
    return exper::run_cell_reference(cfg);
  };
  exper::ParallelRunner serial(1);
  exper::RunReport report = serial.run(tasks, base_seed, opts);
  std::vector<exper::CellResult> out;
  for (auto& cell : report.cells) {
    EXPECT_TRUE(cell.status.is_ok()) << cell.status.to_string();
    out.push_back(std::move(cell.result));
  }
  return out;
}

class FastPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ex_ = new exper::Experiment(23, 3.0); }
  static void TearDownTestSuite() {
    delete ex_;
    ex_ = nullptr;
  }

  /// The union of the paper-figure grids, scaled onto the 3-minute test
  /// trace (same shape as test_parallel.cpp's figure_grid).
  static std::vector<exper::GridTask> figure_grid() {
    std::vector<exper::GridTask> tasks;
    const auto& cache = ex_->binned_cache();

    exper::CellConfig base;
    base.interval = ex_->interval(120.0);
    base.mean_interarrival_usec = ex_->mean_interarrival_usec();
    base.cache = &cache;

    // fig06/07: systematic ladder with offset replications.
    for (std::uint64_t k : exper::granularity_ladder(4, 32768)) {
      exper::CellConfig cfg = base;
      cfg.method = core::Method::kSystematicCount;
      cfg.target = core::Target::kPacketSize;
      cfg.granularity = k;
      cfg.replications = static_cast<int>(std::min<std::uint64_t>(k, 50));
      tasks.push_back({cfg, 0});
    }

    // fig08/09: five methods x ladder x both targets.
    for (auto target :
         {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
      for (std::uint64_t k : exper::granularity_ladder(4, 16384)) {
        for (auto m :
             {core::Method::kSystematicCount, core::Method::kStratifiedCount,
              core::Method::kSimpleRandom, core::Method::kSystematicTimer,
              core::Method::kStratifiedTimer}) {
          exper::CellConfig cfg = base;
          cfg.method = m;
          cfg.target = target;
          cfg.granularity = k;
          cfg.replications = 5;
          tasks.push_back({cfg, 0});
        }
      }
    }

    // fig10/11: growing windows x {16, 256, 4096} x both targets.
    const std::vector<double> seconds = {12, 18, 27, 40, 60, 90, 140, 170};
    for (auto target :
         {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
      for (std::size_t i = 0; i < seconds.size(); ++i) {
        for (std::uint64_t k : {16ULL, 256ULL, 4096ULL}) {
          exper::CellConfig cfg = base;
          cfg.method = core::Method::kSystematicCount;
          cfg.target = target;
          cfg.granularity = k;
          cfg.interval = ex_->full().prefix_duration(
              MicroDuration::from_seconds(seconds[i]));
          cfg.replications = 5;
          tasks.push_back({cfg, static_cast<std::uint64_t>(i)});
        }
      }
    }
    return tasks;
  }

  static void expect_bit_identical(const std::vector<exper::CellResult>& a,
                                   const std::vector<exper::CellResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].replications.size(), b[i].replications.size())
          << "cell " << i;
      for (std::size_t r = 0; r < a[i].replications.size(); ++r) {
        const auto& ma = a[i].replications[r];
        const auto& mb = b[i].replications[r];
        // Exact double equality: identical histogram counts must flow into
        // identical metrics, bit for bit.
        EXPECT_EQ(ma.chi2, mb.chi2) << "cell " << i << " rep " << r;
        EXPECT_EQ(ma.dof, mb.dof) << "cell " << i << " rep " << r;
        EXPECT_EQ(ma.significance, mb.significance) << "cell " << i;
        EXPECT_EQ(ma.cost, mb.cost) << "cell " << i << " rep " << r;
        EXPECT_EQ(ma.rcost, mb.rcost) << "cell " << i << " rep " << r;
        EXPECT_EQ(ma.x2, mb.x2) << "cell " << i << " rep " << r;
        EXPECT_EQ(ma.avg_norm_dev, mb.avg_norm_dev) << "cell " << i;
        EXPECT_EQ(ma.phi, mb.phi) << "cell " << i << " rep " << r;
        EXPECT_EQ(ma.sample_n, mb.sample_n) << "cell " << i << " rep " << r;
        EXPECT_EQ(ma.population_n, mb.population_n) << "cell " << i;
      }
    }
  }

  static exper::Experiment* ex_;
};

exper::Experiment* FastPathTest::ex_ = nullptr;

TEST_F(FastPathTest, UncoveredCellsBuildOneCacheAndMatchReference) {
  if (!obs::detail::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (NETSAMPLE_OBS=OFF)";
  }
  // Leaves obs disabled and zeroed, as test_obs.cpp's fixture does, so no
  // later test in this process inherits the build count.
  struct ObsOn {
    ObsOn() { obs::set_enabled(true); }
    ~ObsOn() {
      obs::set_enabled(false);
      obs::registry().reset();
    }
  } obs_on;
  const obs::Counter& builds =
      obs::registry().counter("netsample_trace_cache_builds_total");
  const auto& shared = ex_->binned_cache();  // built before anything counts
  const exper::Experiment other(24, 0.5);

  exper::CellConfig cfg;
  cfg.method = core::Method::kStratifiedCount;
  cfg.target = core::Target::kInterarrivalTime;
  cfg.granularity = 16;
  cfg.interval = ex_->interval(30.0);
  cfg.mean_interarrival_usec = ex_->mean_interarrival_usec();
  cfg.replications = 4;
  cfg.base_seed = 99;
  // Scores one cell both ways; returns how many caches run_cell built.
  const auto builds_for = [&](const exper::CellConfig& c) {
    const auto before = builds.value();
    const auto cell = exper::run_cell(c);
    const auto delta = builds.value() - before;
    expect_bit_identical({exper::run_cell_reference(c)}, {cell});
    return delta;
  };

  EXPECT_EQ(builds_for(cfg), 1u);  // no cache attached
  cfg.cache = &shared;
  EXPECT_EQ(builds_for(cfg), 0u);  // a covered view reads the shared cache
  cfg.interval = other.full();     // a view over foreign storage
  cfg.mean_interarrival_usec = other.mean_interarrival_usec();
  EXPECT_EQ(builds_for(cfg), 1u);
}

TEST_F(FastPathTest, FullFigureGridBitIdenticalLegacyVsFastVsThreaded) {
  const auto tasks = figure_grid();
  const auto legacy = reference_run(tasks, 23);
  exper::ParallelRunner serial(1);
  exper::ParallelRunner threaded(4);
  const auto fast1 = serial.run(tasks, 23);
  const auto fastN = threaded.run(tasks, 23);
  expect_bit_identical(legacy, fast1);
  expect_bit_identical(fast1, fastN);
}

TEST_F(FastPathTest, ReplicationIndexSetsMatchStreamingPerMethod) {
  const auto& cache = ex_->binned_cache();
  const auto interval = ex_->interval(60.0);
  const std::size_t begin = cache.offset_of(interval);
  const std::size_t end = begin + interval.size();

  for (auto m : {core::Method::kSystematicCount, core::Method::kStratifiedCount,
                 core::Method::kSimpleRandom, core::Method::kSystematicTimer,
                 core::Method::kStratifiedTimer}) {
    exper::CellConfig cfg;
    cfg.method = m;
    cfg.granularity = 64;
    cfg.interval = interval;
    cfg.mean_interarrival_usec = ex_->mean_interarrival_usec();
    cfg.replications = 7;
    cfg.base_seed = 555;
    for (int r = 0; r < cfg.replications; ++r) {
      const auto spec = exper::replication_spec(cfg, r);
      auto sampler = core::make_sampler(spec);
      EXPECT_EQ(core::select_indices(spec, cache, begin, end),
                core::draw_sample_indices(interval, *sampler))
          << core::method_name(m) << " rep " << r;
    }
  }
}

TEST_F(FastPathTest, SweepNeverMaterializesPopulation) {
  exper::CellConfig base;
  base.method = core::Method::kStratifiedCount;
  base.target = core::Target::kInterarrivalTime;
  base.interval = ex_->interval(60.0);
  base.mean_interarrival_usec = ex_->mean_interarrival_usec();
  base.replications = 3;
  const std::vector<std::uint64_t> ladder = {4, 16, 64, 256};

  // Prefix-sum subtraction over a cache, attached or private: the
  // population values are never materialized.
  for (const core::BinnedTraceCache* cache :
       {static_cast<const core::BinnedTraceCache*>(nullptr),
        &ex_->binned_cache()}) {
    base.cache = cache;
    const auto before = core::population_values_call_count();
    const auto cells = exper::sweep_granularity(base, ladder);
    ASSERT_EQ(cells.size(), ladder.size());
    EXPECT_EQ(core::population_values_call_count() - before, 0u)
        << (cache == nullptr ? "no cache" : "shared cache");
  }
}

TEST_F(FastPathTest, SweepHelpersAgreeAcrossPathsAndThreadCounts) {
  exper::CellConfig base;
  base.method = core::Method::kSimpleRandom;
  base.target = core::Target::kPacketSize;
  base.interval = ex_->interval(45.0);
  base.mean_interarrival_usec = ex_->mean_interarrival_usec();
  base.replications = 5;
  base.base_seed = 42;
  base.cache = &ex_->binned_cache();

  // The reference grids, laid out exactly as the runner's sweep helpers
  // lay theirs out (granularity rungs; interval prefixes with their index).
  const std::vector<std::uint64_t> ks = {2, 8, 128, 2048};
  const std::vector<double> secs = {15.0, 60.0, 150.0};
  std::vector<exper::GridTask> g_tasks, i_tasks;
  for (std::uint64_t k : ks) {
    g_tasks.push_back({base, 0});
    g_tasks.back().config.granularity = k;
  }
  for (std::size_t i = 0; i < secs.size(); ++i) {
    i_tasks.push_back({base, i});
    i_tasks.back().config.interval =
        ex_->full().prefix_duration(MicroDuration::from_seconds(secs[i]));
  }

  exper::ParallelRunner threaded(3);
  expect_bit_identical(reference_run(g_tasks, base.base_seed),
                       threaded.sweep_granularity(base, ks));
  expect_bit_identical(reference_run(i_tasks, base.base_seed),
                       threaded.sweep_interval(base, ex_->full(), secs));
}

}  // namespace
}  // namespace netsample
#pragma GCC diagnostic pop
