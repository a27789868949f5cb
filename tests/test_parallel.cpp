// Tests for the parallel experiment engine: util::ThreadPool behavior
// (saturation, drain-on-shutdown, exception propagation), deterministic
// per-task seed derivation, and the headline guarantee — an N-thread sweep
// of the full fig06-fig11 grid is bit-identical to the 1-thread sweep.
#include "exper/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exper/experiment.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace netsample {
namespace {

// ---------------------------------------------------------------------------
// util::ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(util::ThreadPool::default_thread_count(), 1u);
  util::ThreadPool pool;
  EXPECT_EQ(pool.thread_count(), util::ThreadPool::default_thread_count());
}

TEST(ThreadPool, SubmitReturnsFutureWithResult) {
  util::ThreadPool pool(2);
  auto f = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SaturationManyMoreTasksThanThreads) {
  util::ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  futures.reserve(200);
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 200; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> executed{0};
  std::vector<std::future<void>> futures;
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([&executed]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        executed.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    // Destruction races the queue: most of the 64 tasks are still pending.
  }
  EXPECT_EQ(executed.load(), 64);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  util::ThreadPool pool(2);
  auto ok = pool.submit([]() { return 1; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 1);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, ExceptionDoesNotKillWorkers) {
  util::ThreadPool pool(1);
  auto bad = pool.submit([]() { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The single worker survived the throw and still serves tasks.
  auto after = pool.submit([]() { return 7; });
  EXPECT_EQ(after.get(), 7);
}

TEST(ThreadPool, ConcurrentSubmitters) {
  util::ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::thread> submitters;
  std::mutex futures_mutex;
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&]() {
      for (int i = 0; i < 50; ++i) {
        auto f = pool.submit(
            [&sum]() { sum.fetch_add(1, std::memory_order_relaxed); });
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(f));
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 200);
}

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

TEST(DeriveSeed, GoldenValuesPinTheScheme) {
  // Frozen outputs of the splitmix-style chain. If any of these change, the
  // seeding scheme changed and archived experiment outputs are no longer
  // reproducible -- bump them only with a deliberate scheme change.
  EXPECT_EQ(derive_seed({}), 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(derive_seed({0}), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(derive_seed({1}), 0xbeeb8da1658eec67ULL);
  EXPECT_EQ(derive_seed({23, 0x5359434eULL, 50, 0}), 0xe074b4da178c28b7ULL);
}

TEST(DeriveSeed, OrderAndValueSensitive) {
  EXPECT_NE(derive_seed({1, 2}), derive_seed({2, 1}));
  EXPECT_NE(derive_seed({0, 0}), derive_seed({0}));
  EXPECT_EQ(derive_seed({5, 6, 7}), derive_seed({5, 6, 7}));
}

TEST(TaskSeed, StablePerCoordinateAndDistinctAcrossCoordinates) {
  const std::uint64_t s =
      exper::task_seed(23, core::Method::kSystematicCount, 64, 3);
  EXPECT_EQ(s, exper::task_seed(23, core::Method::kSystematicCount, 64, 3));

  std::set<std::uint64_t> seeds;
  for (auto m : {core::Method::kSystematicCount, core::Method::kStratifiedCount,
                 core::Method::kSimpleRandom, core::Method::kSystematicTimer,
                 core::Method::kStratifiedTimer}) {
    for (std::uint64_t k : {4ULL, 64ULL, 32768ULL}) {
      for (std::uint64_t i : {0ULL, 1ULL, 7ULL}) {
        seeds.insert(exper::task_seed(23, m, k, i));
        seeds.insert(exper::task_seed(24, m, k, i));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 5u * 3u * 3u * 2u);  // no collisions on the grid
}

TEST(TaskSeed, MethodTagsAreDistinct) {
  std::set<std::uint64_t> tags;
  for (auto m : {core::Method::kSystematicCount, core::Method::kStratifiedCount,
                 core::Method::kSimpleRandom, core::Method::kSystematicTimer,
                 core::Method::kStratifiedTimer}) {
    tags.insert(core::method_seed_tag(m));
  }
  EXPECT_EQ(tags.size(), 5u);
}

// ---------------------------------------------------------------------------
// ParallelRunner determinism
// ---------------------------------------------------------------------------

// A 4-minute synthetic trace keeps the full-grid determinism test tractable
// while preserving every (method, granularity, interval) coordinate of the
// fig06-fig11 grids.
class ParallelRunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ex_ = new exper::Experiment(23, 4.0); }
  static void TearDownTestSuite() {
    delete ex_;
    ex_ = nullptr;
  }

  /// The union of the paper-figure grids, scaled onto the test trace:
  ///   fig06/07: systematic x ladder(4..32768), min(k,50) replications;
  ///   fig08/09: five methods x ladder(4..16384) x both targets;
  ///   fig10/11: {16,256,4096} x 8 growing intervals x both targets.
  static std::vector<exper::GridTask> figure_grid() {
    std::vector<exper::GridTask> tasks;
    const auto interval = ex_->interval(120.0);
    const double mean_iat = ex_->mean_interarrival_usec();

    exper::CellConfig base;
    base.interval = interval;
    base.mean_interarrival_usec = mean_iat;

    // fig06/07 (identical cells: fig07 plots the means of fig06's boxes).
    for (std::uint64_t k : exper::granularity_ladder(4, 32768)) {
      exper::CellConfig cfg = base;
      cfg.method = core::Method::kSystematicCount;
      cfg.target = core::Target::kPacketSize;
      cfg.granularity = k;
      cfg.replications = static_cast<int>(std::min<std::uint64_t>(k, 50));
      tasks.push_back({cfg, 0});
    }

    // fig08/09.
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

    // fig10/11: eight growing windows (shortest still > 4096 packets so the
    // coarsest fraction keeps non-empty replications).
    const std::vector<double> seconds = {12, 18, 27, 40, 60, 90, 140, 220};
    for (auto target :
         {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
      for (std::size_t i = 0; i < seconds.size(); ++i) {
        for (std::uint64_t k : {16ULL, 256ULL, 4096ULL}) {
          exper::CellConfig cfg = base;
          cfg.method = core::Method::kSystematicCount;
          cfg.target = target;
          cfg.granularity = k;
          cfg.interval =
              ex_->full().prefix_duration(MicroDuration::from_seconds(seconds[i]));
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
      EXPECT_EQ(a[i].config.base_seed, b[i].config.base_seed) << "cell " << i;
      for (std::size_t r = 0; r < a[i].replications.size(); ++r) {
        const auto& ma = a[i].replications[r];
        const auto& mb = b[i].replications[r];
        // EXPECT_EQ on doubles is exact equality: the guarantee is
        // bit-identical, not approximately equal.
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

exper::Experiment* ParallelRunnerTest::ex_ = nullptr;

TEST_F(ParallelRunnerTest, FullFigureGridBitIdenticalAcrossThreadCounts) {
  const auto tasks = figure_grid();
  exper::ParallelRunner serial(1);
  exper::ParallelRunner threaded(4);
  ASSERT_EQ(serial.jobs(), 1);
  ASSERT_EQ(threaded.jobs(), 4);
  const auto a = serial.run(tasks, 23);
  const auto b = threaded.run(tasks, 23);
  expect_bit_identical(a, b);
}

TEST_F(ParallelRunnerTest, SweepHelpersMatchAcrossThreadCounts) {
  exper::CellConfig base;
  base.method = core::Method::kStratifiedCount;
  base.target = core::Target::kPacketSize;
  base.interval = ex_->interval(60.0);
  base.mean_interarrival_usec = ex_->mean_interarrival_usec();
  base.replications = 5;
  base.base_seed = 99;

  const std::vector<std::uint64_t> ks = {4, 32, 256};
  exper::ParallelRunner serial(1);
  exper::ParallelRunner threaded(3);
  expect_bit_identical(serial.sweep_granularity(base, ks),
                       threaded.sweep_granularity(base, ks));
  const std::vector<double> secs = {15.0, 60.0, 180.0};
  expect_bit_identical(serial.sweep_interval(base, ex_->full(), secs),
                       threaded.sweep_interval(base, ex_->full(), secs));
}

TEST_F(ParallelRunnerTest, ResultsComeBackInTaskOrder) {
  exper::CellConfig base;
  base.method = core::Method::kSystematicCount;
  base.target = core::Target::kPacketSize;
  base.interval = ex_->interval(60.0);
  base.mean_interarrival_usec = ex_->mean_interarrival_usec();
  base.replications = 3;

  const std::vector<std::uint64_t> ks = {512, 4, 64, 8192, 2};
  exper::ParallelRunner runner(4);
  const auto cells = runner.sweep_granularity(base, ks);
  ASSERT_EQ(cells.size(), ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(cells[i].config.granularity, ks[i]);
  }
}

TEST_F(ParallelRunnerTest, DistinctCellsGetDistinctDerivedSeeds) {
  exper::CellConfig base;
  base.method = core::Method::kStratifiedCount;
  base.target = core::Target::kPacketSize;
  base.interval = ex_->interval(30.0);
  base.mean_interarrival_usec = ex_->mean_interarrival_usec();
  base.replications = 2;

  exper::ParallelRunner runner(2);
  const auto cells = runner.sweep_granularity(base, {4, 8, 16, 32});
  std::set<std::uint64_t> seeds;
  for (const auto& c : cells) seeds.insert(c.config.base_seed);
  EXPECT_EQ(seeds.size(), 4u);
}

TEST_F(ParallelRunnerTest, RunCellExceptionPropagates) {
  exper::GridTask bad;  // empty interval -> run_cell throws
  bad.config.method = core::Method::kSystematicCount;
  bad.config.replications = 3;
  exper::ParallelRunner runner(2);
  EXPECT_THROW((void)runner.run({bad}, 1), std::invalid_argument);
  exper::ParallelRunner serial(1);
  EXPECT_THROW((void)serial.run({bad}, 1), std::invalid_argument);
}

TEST(ParallelRunner, ZeroJobsSelectsHardwareConcurrency) {
  exper::ParallelRunner runner(0);
  EXPECT_EQ(runner.jobs(),
            static_cast<int>(util::ThreadPool::default_thread_count()));
}

// ---------------------------------------------------------------------------
// Fault-tolerance policies (abort / skip / retry)
// ---------------------------------------------------------------------------

class ParallelPolicyTest : public ParallelRunnerTest {
 protected:
  /// A small healthy grid; cell index 2 is the one the fault injector
  /// targets in the policy tests.
  static std::vector<exper::GridTask> small_grid() {
    std::vector<exper::GridTask> tasks;
    for (std::uint64_t k : {8ULL, 16ULL, 32ULL, 64ULL, 128ULL}) {
      exper::GridTask t;
      t.config.method = core::Method::kSystematicCount;
      t.config.target = core::Target::kPacketSize;
      t.config.granularity = k;
      t.config.interval = ex_->interval(60.0);
      t.config.mean_interarrival_usec = ex_->mean_interarrival_usec();
      t.config.replications = 3;
      tasks.push_back(t);
    }
    return tasks;
  }
};

TEST_F(ParallelPolicyTest, SkipQuarantinesFailedCellOthersUnchanged) {
  const auto tasks = small_grid();
  exper::ParallelRunner serial(1);
  const auto reference = serial.run(tasks, 23);

  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kSkip;
  opts.fault_injector = [](std::size_t index, int) {
    return index == 2 ? Status(StatusCode::kInternal, "injected")
                      : Status::ok();
  };
  const auto report = serial.run(tasks, 23, opts);
  ASSERT_EQ(report.cells.size(), tasks.size());
  EXPECT_EQ(report.ok_count(), tasks.size() - 1);
  EXPECT_EQ(report.quarantined(), std::vector<std::size_t>{2});
  EXPECT_EQ(report.cells[2].status.code(), StatusCode::kInternal);
  EXPECT_EQ(report.first_failure().code(), StatusCode::kInternal);
  // The healthy cells' numbers are untouched by their neighbor's failure.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i == 2) continue;
    ASSERT_EQ(report.cells[i].result.replications.size(),
              reference[i].replications.size());
    for (std::size_t r = 0; r < reference[i].replications.size(); ++r) {
      EXPECT_EQ(report.cells[i].result.replications[r].phi,
                reference[i].replications[r].phi)
          << "cell " << i << " rep " << r;
    }
  }
}

TEST_F(ParallelPolicyTest, RetryCompletesAllCellsAfterTransientFailure) {
  const auto tasks = small_grid();
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kRetry;
  opts.max_attempts = 3;
  // Cell 2 fails its first attempt only — a transient fault.
  opts.fault_injector = [](std::size_t index, int attempt) {
    return index == 2 && attempt == 0
               ? Status(StatusCode::kInternal, "transient")
               : Status::ok();
  };
  exper::ParallelRunner serial(1);
  const auto report = serial.run(tasks, 23, opts);
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.cells[2].attempts, 2);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i != 2) {
      EXPECT_EQ(report.cells[i].attempts, 1) << "cell " << i;
    }
  }
  // The retry ran under a different derived seed than attempt 0 would have.
  const auto reference = serial.run(tasks, 23);
  EXPECT_NE(report.cells[2].result.config.base_seed,
            reference[2].config.base_seed);
}

TEST_F(ParallelPolicyTest, RetryExhaustionQuarantinesWithAttemptCount) {
  const auto tasks = small_grid();
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kRetry;
  opts.max_attempts = 3;
  opts.fault_injector = [](std::size_t index, int) {
    return index == 2 ? Status(StatusCode::kInternal, "permanent")
                      : Status::ok();
  };
  exper::ParallelRunner serial(1);
  const auto report = serial.run(tasks, 23, opts);
  EXPECT_EQ(report.ok_count(), tasks.size() - 1);
  EXPECT_EQ(report.cells[2].attempts, 3);
  EXPECT_EQ(report.cells[2].status.code(), StatusCode::kInternal);
}

TEST_F(ParallelPolicyTest, AttemptLogRecordsEveryAttemptWithSeedAndTiming) {
  const auto tasks = small_grid();
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kRetry;
  opts.max_attempts = 3;
  // Cell 2 fails twice, then succeeds on its third attempt.
  opts.fault_injector = [](std::size_t index, int attempt) {
    return index == 2 && attempt < 2
               ? Status(StatusCode::kInternal, "transient")
               : Status::ok();
  };
  exper::ParallelRunner serial(1);
  const auto report = serial.run(tasks, 23, opts);
  ASSERT_TRUE(report.all_ok());

  const auto& cell = report.cells[2];
  ASSERT_EQ(cell.attempts, 3);
  ASSERT_EQ(cell.attempt_log.size(), 3u)
      << "every executed attempt must be logged, not just the last";
  // Attempt 0 ran with the cell's coordinate seed; retries with per-attempt
  // derived seeds — the log records what each attempt actually used.
  const std::uint64_t cell_seed = exper::task_seed(
      23, tasks[2].config.method, tasks[2].config.granularity, 0);
  EXPECT_EQ(cell.attempt_log[0].seed, cell_seed);
  EXPECT_EQ(cell.attempt_log[1].seed, derive_seed({cell_seed, 1}));
  EXPECT_EQ(cell.attempt_log[2].seed, derive_seed({cell_seed, 2}));
  EXPECT_EQ(cell.attempt_log[0].status.code(), StatusCode::kInternal);
  EXPECT_EQ(cell.attempt_log[1].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(cell.attempt_log[2].status.is_ok());
  for (const auto& rec : cell.attempt_log) {
    EXPECT_GE(rec.wall_seconds, 0.0);
    EXPECT_GE(rec.cpu_seconds, 0.0);
  }
  EXPECT_GT(cell.attempt_log[2].wall_seconds, 0.0)
      << "the successful attempt ran a real cell";

  // Healthy cells log exactly their one successful attempt.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i == 2) continue;
    ASSERT_EQ(report.cells[i].attempt_log.size(), 1u) << "cell " << i;
    EXPECT_TRUE(report.cells[i].attempt_log[0].status.is_ok());
    EXPECT_EQ(report.cells[i].attempt_log[0].status.code(),
              report.cells[i].status.code());
  }
}

TEST_F(ParallelPolicyTest, AttemptLogKeepsFailuresOnExhaustion) {
  const auto tasks = small_grid();
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kRetry;
  opts.max_attempts = 3;
  opts.fault_injector = [](std::size_t index, int) {
    return index == 2 ? Status(StatusCode::kInternal, "permanent")
                      : Status::ok();
  };
  exper::ParallelRunner serial(1);
  const auto report = serial.run(tasks, 23, opts);
  const auto& cell = report.cells[2];
  ASSERT_EQ(cell.attempt_log.size(), 3u);
  for (const auto& rec : cell.attempt_log) {
    EXPECT_EQ(rec.status.code(), StatusCode::kInternal);
  }
  // The last logged attempt is the quarantined status.
  EXPECT_EQ(cell.attempt_log.back().status.code(), cell.status.code());
}

TEST_F(ParallelPolicyTest, RetryAttemptsAreDeterministic) {
  const auto tasks = small_grid();
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kRetry;
  opts.fault_injector = [](std::size_t index, int attempt) {
    return index == 2 && attempt == 0
               ? Status(StatusCode::kInternal, "transient")
               : Status::ok();
  };
  exper::ParallelRunner serial(1);
  exper::ParallelRunner threaded(4);
  const auto a = serial.run(tasks, 23, opts);
  const auto b = threaded.run(tasks, 23, opts);
  ASSERT_TRUE(a.all_ok());
  ASSERT_TRUE(b.all_ok());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& ra = a.cells[i].result.replications;
    const auto& rb = b.cells[i].result.replications;
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t r = 0; r < ra.size(); ++r) {
      EXPECT_EQ(ra[r].phi, rb[r].phi) << "cell " << i << " rep " << r;
    }
  }
}

TEST_F(ParallelPolicyTest, AbortCancelsCellsAfterFirstFailureSerially) {
  const auto tasks = small_grid();
  exper::RunOptions opts;  // kAbort default
  opts.fault_injector = [](std::size_t index, int) {
    return index == 2 ? Status(StatusCode::kInternal, "fatal")
                      : Status::ok();
  };
  exper::ParallelRunner serial(1);
  const auto report = serial.run(tasks, 23, opts);
  EXPECT_TRUE(report.cells[0].status.is_ok());
  EXPECT_TRUE(report.cells[1].status.is_ok());
  EXPECT_EQ(report.cells[2].status.code(), StatusCode::kInternal);
  // Serial execution is ordered, so everything after the failure was
  // cancelled before starting.
  EXPECT_EQ(report.cells[3].status.code(), StatusCode::kCancelled);
  EXPECT_EQ(report.cells[4].status.code(), StatusCode::kCancelled);
  EXPECT_EQ(report.cells[3].attempts, 0);
}

TEST_F(ParallelPolicyTest, ExpiredCellTimeoutReportsDeadlineExceeded) {
  const auto tasks = small_grid();
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kSkip;
  opts.cell_timeout_seconds = 1e-12;  // expired before the first poll
  exper::ParallelRunner serial(1);
  const auto report = serial.run(tasks, 23, opts);
  EXPECT_EQ(report.ok_count(), 0u);
  for (const auto& c : report.cells) {
    EXPECT_EQ(c.status.code(), StatusCode::kDeadlineExceeded);
  }
}

TEST_F(ParallelPolicyTest, SweepCancellationShortCircuitsRemainingCells) {
  const auto tasks = small_grid();
  util::CancelToken sweep;
  sweep.cancel();  // cancelled before the sweep even starts
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kSkip;
  opts.cancel = &sweep;
  exper::ParallelRunner serial(1);
  const auto report = serial.run(tasks, 23, opts);
  EXPECT_EQ(report.ok_count(), 0u);
  for (const auto& c : report.cells) {
    EXPECT_EQ(c.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(c.attempts, 0);
  }
}

TEST_F(ParallelPolicyTest, OnCellDoneFiresInTaskOrder) {
  const auto tasks = small_grid();
  std::vector<std::size_t> order;
  exper::RunOptions opts;
  opts.on_cell_done = [&order](std::size_t index, const Status& s) {
    EXPECT_TRUE(s.is_ok());
    order.push_back(index);
  };
  exper::ParallelRunner threaded(4);
  ASSERT_TRUE(threaded.run(tasks, 23, opts).all_ok());
  ASSERT_EQ(order.size(), tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// ---------------------------------------------------------------------------
// Target twins: one selection per replication for a grid point's size and
// interarrival cells
// ---------------------------------------------------------------------------

class ParallelRunnerTwins : public ParallelRunnerTest {
 protected:
  /// Leaves obs disabled and zeroed, as test_obs.cpp's fixture does.
  struct ObsOn {
    ObsOn() {
      obs::registry().reset();
      obs::set_enabled(true);
    }
    ~ObsOn() {
      obs::set_enabled(false);
      obs::registry().reset();
    }
  };

  static std::uint64_t counter(const char* name) {
    return obs::registry().counter(name).value();
  }

  /// The config a task runs with: its seed derived from its coordinates.
  static exper::CellConfig derived(const exper::GridTask& task,
                                   std::uint64_t base_seed) {
    exper::CellConfig cfg = task.config;
    cfg.base_seed = exper::task_seed(base_seed, cfg.method, cfg.granularity,
                                     task.interval_index);
    cfg.cancel = nullptr;
    return cfg;
  }

  static void expect_same_config(const exper::CellConfig& a,
                                 const exper::CellConfig& b,
                                 const std::string& where) {
    EXPECT_EQ(a.method, b.method) << where;
    EXPECT_EQ(a.target, b.target) << where;
    EXPECT_EQ(a.granularity, b.granularity) << where;
    EXPECT_EQ(a.interval.packets().data(), b.interval.packets().data())
        << where;
    EXPECT_EQ(a.interval.size(), b.interval.size()) << where;
    EXPECT_EQ(a.mean_interarrival_usec, b.mean_interarrival_usec) << where;
    EXPECT_EQ(a.replications, b.replications) << where;
    EXPECT_EQ(a.base_seed, b.base_seed) << where;
    EXPECT_EQ(a.cache, b.cache) << where;
    EXPECT_EQ(a.cancel, b.cancel) << where;
  }

  static void expect_same_replications(
      const std::vector<core::DisparityMetrics>& a,
      const std::vector<core::DisparityMetrics>& b, const std::string& where) {
    ASSERT_EQ(a.size(), b.size()) << where;
    EXPECT_TRUE(a.empty() ||
                std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0)
        << where;
  }

  /// Both targets x {systematic, stratified, random} x {8, 64}, three
  /// replications each: 12 cells in 6 twin groups.
  static std::vector<exper::GridTask> twin_grid() {
    std::vector<exper::GridTask> tasks;
    for (auto target :
         {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
      for (auto m : {core::Method::kSystematicCount,
                     core::Method::kStratifiedCount,
                     core::Method::kSimpleRandom}) {
        for (std::uint64_t k : {8ULL, 64ULL}) {
          exper::GridTask t;
          t.config.method = m;
          t.config.target = target;
          t.config.granularity = k;
          t.config.interval = ex_->interval(30.0);
          t.config.mean_interarrival_usec = ex_->mean_interarrival_usec();
          t.config.replications = 3;
          t.config.cache = &ex_->binned_cache();
          tasks.push_back(t);
        }
      }
    }
    return tasks;
  }

  /// A size/interarrival twin pair over a one-packet interval: the size
  /// twin scores, the interarrival twin has no population to score against.
  static std::vector<exper::GridTask> one_packet_twins() {
    std::vector<exper::GridTask> tasks;
    for (auto target :
         {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
      exper::GridTask t;
      t.config.method = core::Method::kSystematicCount;
      t.config.target = target;
      t.config.granularity = 2;
      t.config.interval =
          trace::TraceView(ex_->full().packets().subspan(0, 1));
      t.config.mean_interarrival_usec = ex_->mean_interarrival_usec();
      t.config.replications = 1;
      tasks.push_back(t);
    }
    return tasks;
  }
};

TEST_F(ParallelRunnerTwins, FigureGridEqualsSerialRunCellAtEveryJobs) {
  auto tasks = figure_grid();
  // Same view, method and k but different interval indices, hence
  // different seeds: not twins.
  for (auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    exper::GridTask t;
    t.config.method = core::Method::kStratifiedCount;
    t.config.target = target;
    t.config.granularity = 32;
    t.config.interval = ex_->interval(60.0);
    t.config.mean_interarrival_usec = ex_->mean_interarrival_usec();
    t.config.replications = 4;
    t.interval_index = target == core::Target::kPacketSize ? 0 : 1;
    tasks.push_back(t);
  }
  std::vector<exper::CellResult> serial;
  for (const auto& t : tasks) serial.push_back(exper::run_cell(derived(t, 23)));
  for (int jobs : {1, 2, 4}) {
    exper::ParallelRunner runner(jobs);
    const auto report = runner.run(tasks, 23, exper::RunOptions{});
    ASSERT_EQ(report.cells.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const std::string where =
          "jobs " + std::to_string(jobs) + " cell " + std::to_string(i);
      ASSERT_TRUE(report.cells[i].status.is_ok()) << where;
      expect_same_replications(report.cells[i].result.replications,
                               serial[i].replications, where);
      expect_same_config(report.cells[i].result.config, derived(tasks[i], 23),
                         where);
    }
  }
}

TEST_F(ParallelRunnerTwins, OneSelectionPerGroupAndReplication) {
  if (!obs::detail::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (NETSAMPLE_OBS=OFF)";
  }
  const auto tasks = twin_grid();
  for (int jobs : {1, 3}) {
    ObsOn obs_on;
    exper::ParallelRunner runner(jobs);
    ASSERT_TRUE(runner.run(tasks, 23, exper::RunOptions{}).all_ok());
    EXPECT_EQ(counter("netsample_select_calls_total"), 6u * 3u)
        << "jobs " << jobs;
    EXPECT_EQ(counter("netsample_trace_cache_sample_histograms_total"),
              12u * 3u)
        << "jobs " << jobs;
    EXPECT_EQ(counter("netsample_sweep_cells_total"), 12u) << "jobs " << jobs;
  }
}

TEST_F(ParallelRunnerTwins, EmptyPopulationFailsOnlyTheInterarrivalTwin) {
  const auto tasks = one_packet_twins();
  auto expect_split = [&](const exper::RunReport& report,
                          const std::string& where) {
    ASSERT_EQ(report.cells.size(), 2u) << where;
    const auto& size = report.cells[0];
    const auto& iat = report.cells[1];
    ASSERT_TRUE(size.status.is_ok()) << where;
    ASSERT_EQ(size.result.replications.size(), 1u) << where;
    EXPECT_EQ(size.result.replications[0].phi, 0.0) << where;
    EXPECT_EQ(size.attempts, 1) << where;
    EXPECT_EQ(iat.status.code(), StatusCode::kInternal) << where;
    EXPECT_EQ(iat.status.message(), "score: empty population") << where;
    for (std::size_t i = 0; i < 2; ++i) {
      expect_same_config(report.cells[i].result.config, derived(tasks[i], 23),
                         where + " cell " + std::to_string(i));
    }
  };

  exper::RunOptions skip;
  skip.on_error = exper::FailPolicy::kSkip;
  for (int jobs : {1, 2}) {
    exper::ParallelRunner runner(jobs);
    expect_split(runner.run(tasks, 23, skip), "skip, jobs " +
                                                  std::to_string(jobs));
  }

  exper::ParallelRunner serial(1);
  expect_split(serial.run(tasks, 23, exper::RunOptions{}), "serial abort");
  EXPECT_THROW((void)serial.run(tasks, 23), std::invalid_argument);

  exper::RunOptions retry;
  retry.on_error = exper::FailPolicy::kRetry;
  retry.max_attempts = 3;
  const obs::Counter& sampled =
      obs::registry().counter("netsample_trace_cache_sample_histograms_total");
  ObsOn obs_on;
  const auto report = serial.run(tasks, 23, retry);
  expect_split(report, "retry");
  // The interarrival twin retried alone: two members on attempt 0, then
  // one on each of attempts 1 and 2.
  EXPECT_EQ(report.cells[1].attempts, 3);
  EXPECT_EQ(report.cells[0].attempt_log.size(), 1u);
  if (obs::detail::kCompiledIn) {
    EXPECT_EQ(sampled.value(), 2u + 1u + 1u);
  }
}

TEST_F(ParallelRunnerTwins, InjectedFailureRetriesOnlyThatTwin) {
  auto tasks = twin_grid();
  tasks = {tasks[2], tasks[8]};  // stratified k=8: size, then interarrival
  ASSERT_EQ(tasks[1].config.target, core::Target::kInterarrivalTime);
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kRetry;
  opts.fault_injector = [](std::size_t index, int attempt) {
    return index == 1 && attempt == 0
               ? Status(StatusCode::kInternal, "transient")
               : Status::ok();
  };
  const std::uint64_t cell_seed = derived(tasks[0], 23).base_seed;
  ASSERT_EQ(cell_seed, derived(tasks[1], 23).base_seed);
  for (int jobs : {1, 2}) {
    const std::string where = "jobs " + std::to_string(jobs);
    exper::ParallelRunner runner(jobs);
    const auto report = runner.run(tasks, 23, opts);
    ASSERT_TRUE(report.all_ok()) << where;
    const auto& size = report.cells[0];
    ASSERT_EQ(size.attempt_log.size(), 1u) << where;
    EXPECT_EQ(size.attempt_log[0].seed, cell_seed) << where;
    const auto alone = exper::run_cell(derived(tasks[0], 23));
    expect_same_replications(size.result.replications, alone.replications,
                             where);
    const auto& iat = report.cells[1];
    ASSERT_EQ(iat.attempt_log.size(), 2u) << where;
    EXPECT_EQ(iat.attempt_log[0].seed, cell_seed) << where;
    EXPECT_EQ(iat.attempt_log[0].status.code(), StatusCode::kInternal);
    const std::uint64_t retry_seed = derive_seed({cell_seed, 1});
    EXPECT_EQ(iat.attempt_log[1].seed, retry_seed) << where;
    exper::CellConfig retried = derived(tasks[1], 23);
    retried.base_seed = retry_seed;
    expect_same_replications(iat.result.replications,
                             exper::run_cell(retried).replications, where);
  }
}

TEST_F(ParallelRunnerTwins, JournaledTwinReplaysAndTheOtherRunsAlone) {
  const auto tasks = twin_grid();
  const auto dir = std::filesystem::temp_directory_path();
  const std::string whole = (dir / "netsample_twins_whole.jsonl").string();
  const std::string part = (dir / "netsample_twins_part.jsonl").string();
  std::filesystem::remove(whole);
  std::filesystem::remove(part);
  auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  // Size twin of the stratified k=8 group, then the whole grid.
  const std::vector<exper::GridTask> pair = {tasks[2], tasks[8]};
  exper::ParallelRunner runner(2);
  exper::RunReport uninterrupted;
  {
    auto journal = exper::CheckpointJournal::open(whole);
    ASSERT_TRUE(journal.has_value());
    exper::RunOptions opts;
    opts.journal = &*journal;
    uninterrupted = runner.run(pair, 23, opts);
    ASSERT_TRUE(uninterrupted.all_ok());
  }
  {
    auto journal = exper::CheckpointJournal::open(part);
    ASSERT_TRUE(journal.has_value());
    exper::RunOptions opts;
    opts.journal = &*journal;
    ASSERT_TRUE(runner.run({pair[0]}, 23, opts).all_ok());
  }
  auto journal = exper::CheckpointJournal::open(part);
  ASSERT_TRUE(journal.has_value());
  exper::RunOptions opts;
  opts.journal = &*journal;
  std::uint64_t selections = 0;
  exper::RunReport resumed;
  {
    ObsOn obs_on;
    resumed = runner.run(pair, 23, opts);
    selections = counter("netsample_select_calls_total");
  }
  ASSERT_TRUE(resumed.all_ok());
  EXPECT_TRUE(resumed.cells[0].from_journal);
  EXPECT_FALSE(resumed.cells[1].from_journal);
  EXPECT_EQ(resumed.cells[1].attempts, 1);
  if (obs::detail::kCompiledIn) {
    EXPECT_EQ(selections, 3u);  // the interarrival twin alone
  }
  for (std::size_t i = 0; i < pair.size(); ++i) {
    expect_same_replications(resumed.cells[i].result.replications,
                             uninterrupted.cells[i].result.replications,
                             "cell " + std::to_string(i));
    expect_same_config(resumed.cells[i].result.config,
                       uninterrupted.cells[i].result.config,
                       "cell " + std::to_string(i));
  }
  EXPECT_EQ(read(part), read(whole));
  std::filesystem::remove(whole);
  std::filesystem::remove(part);
}

TEST_F(ParallelRunnerTwins, CellRunnerTasksAreNeverGrouped) {
  const auto tasks = twin_grid();
  std::vector<std::atomic<int>> calls(tasks.size());
  exper::RunOptions opts;
  opts.cell_runner = [&calls](const exper::CellConfig& cfg, std::size_t i) {
    calls[i].fetch_add(1);
    return exper::run_cell(cfg);
  };
  exper::ParallelRunner runner(3);
  const auto report = runner.run(tasks, 23, opts);
  ASSERT_TRUE(report.all_ok());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(calls[i].load(), 1) << "task " << i;
    EXPECT_EQ(report.cells[i].result.config.target, tasks[i].config.target);
  }
}

}  // namespace
}  // namespace netsample
