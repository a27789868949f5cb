// Parallel experiment engine: fans the method x granularity x interval grid
// out over a util::ThreadPool.
//
// The paper's evaluation is embarrassingly parallel — every cell scores an
// independent sample against a shared read-only parent population — so each
// twin group (the cells of one grid point that differ only in target, which
// select identical index sets) becomes one pool task operating on a
// TraceView span (no copies), selecting once per replication for all its
// members.
// When the tasks carry a CellConfig::cache, all workers additionally share
// that one immutable core::BinnedTraceCache: it is built before the fan-out
// (or behind Experiment::binned_cache()'s call_once) and only read inside
// tasks, so the fast path adds no synchronization to the pool.
//
// Determinism is the design constraint: a cell's RNG seed is derived from
// its logical coordinates via task_seed(), never from execution order, so an
// N-thread sweep is bit-identical to the 1-thread sweep. --jobs 1 *is* the
// serial path (no pool is created), making the equivalence testable.
//
// Fault tolerance rides on the same property (see docs/ROBUSTNESS.md):
// cells execute in isolation and report StatusOr-style CellOutcomes, a
// FailPolicy decides whether one failure aborts, skips, or retries (with
// per-attempt derived seeds), a per-cell watchdog deadline unwinds wedged
// cells without stalling the pool, and a CheckpointJournal lets a killed
// sweep resume bit-identically because cell identity is purely logical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exper/journal.h"
#include "exper/runner.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace netsample::exper {

/// Seed for one grid cell, mixed from (base_seed, method, granularity,
/// interval_index) with the splitmix-style derive_seed() hash. Replications
/// inside the cell then spread from this seed exactly as in the serial
/// runner (replication_spec).
[[nodiscard]] std::uint64_t task_seed(std::uint64_t base_seed,
                                      core::Method method,
                                      std::uint64_t granularity,
                                      std::uint64_t interval_index);

/// One cell of an experiment grid. `interval_index` identifies which
/// measurement interval the cell's view is (0 when only one interval is
/// swept); it feeds the seed derivation, not the execution.
/// `journal_suffix` is appended to the cell's checkpoint-journal key for
/// grids where several tasks share identical CellConfig coordinates but
/// run different workloads (the flow grid repeats each cell once per
/// inversion estimator); it feeds neither seeds nor execution.
struct GridTask {
  CellConfig config;
  std::uint64_t interval_index{0};
  std::string journal_suffix{};
};

/// What a sweep does when a cell fails (throws / times out).
enum class FailPolicy {
  kAbort,  // cancel the remaining cells; the sweep stops (default)
  kSkip,   // quarantine the failed cell, run everything else
  kRetry,  // re-run the cell up to max_attempts times, then quarantine
};

/// Sweep-level fault-tolerance options for ParallelRunner::run.
struct RunOptions {
  FailPolicy on_error{FailPolicy::kAbort};

  /// Total attempts per cell under kRetry (first try included). Attempt 0
  /// runs with the cell's coordinate-derived seed; attempt a > 0 runs with
  /// derive_seed({cell_seed, a}), so retries are deterministic but draw
  /// fresh randomness. Ignored by the other policies.
  int max_attempts{3};

  /// Per-cell watchdog (for target twins, per shared attempt): a cell that
  /// exceeds this wall-clock budget unwinds with kDeadlineExceeded at its
  /// next cancellation poll instead of stalling the pool. 0 disables the
  /// deadline.
  double cell_timeout_seconds{0};

  /// Optional sweep-wide cancellation (e.g. SIGINT handling): cells not yet
  /// started return kCancelled, running cells unwind at their next poll.
  util::CancelToken* cancel{nullptr};

  /// Optional checkpoint journal. Cells whose key is already journaled are
  /// served from it without executing; cells that complete OK are recorded.
  /// Because seeds are schedule-independent, a resumed sweep is bit-identical
  /// to an uninterrupted one.
  CheckpointJournal* journal{nullptr};

  /// Deterministic fault-injection hook (the faultsim seam): called before
  /// each attempt with the cell's task index and the attempt number; a
  /// non-OK return fails that attempt as if the cell had thrown. Tests use
  /// it to script first-attempt failures and mid-sweep kills.
  std::function<Status(std::size_t task_index, int attempt)> fault_injector{};

  /// Called on the coordinating thread, in task order, as each cell's
  /// outcome is collected (journal replays included). Tests use it to
  /// cancel mid-sweep at a deterministic point.
  std::function<void(std::size_t task_index, const Status&)> on_cell_done{};

  /// Workload hook: when set, replaces run_cell as the per-cell payload
  /// (all fault-tolerance machinery — retries, deadlines, journal replay,
  /// fault injection — wraps it unchanged). The flow workload plugs
  /// flow::run_flow_cell in here; the default packet workload leaves it
  /// empty. Must be deterministic in (config, task_index) for the
  /// jobs-equivalence guarantee to hold. Opaque, so its tasks are never
  /// grouped as target twins.
  std::function<CellResult(const CellConfig& config, std::size_t task_index)>
      cell_runner{};
};

/// Timing record of one executed attempt of one cell. Every attempt is
/// kept — a retried cell used to surface only its last attempt, which made
/// retry-latency metrics lie about where the wall-clock went.
struct AttemptRecord {
  Status status;            // outcome of this attempt
  std::uint64_t seed{0};    // the seed this attempt actually ran with
  double wall_seconds{0};   // steady-clock duration of the attempt
  double cpu_seconds{0};    // thread CPU time (0 where unsupported)
};

/// Outcome of one cell under a fault-tolerance policy.
struct CellOutcome {
  Status status;       // OK iff `result` is valid
  CellResult result;
  int attempts{0};     // attempts actually executed (0 for journal replays
                       // and cells cancelled before starting)
  /// One record per executed attempt, in attempt order; size() == attempts.
  /// The last record's status equals `status` unless the cell was cancelled
  /// before its first attempt.
  std::vector<AttemptRecord> attempt_log;
  bool from_journal{false};
  /// The original exception when the last attempt threw (kept so the legacy
  /// abort path can rethrow the exact type).
  std::exception_ptr exception{};
};

/// Everything a fault-tolerant sweep produced: per-cell outcomes in task
/// order, with the failed ones quarantined rather than lost.
struct RunReport {
  std::vector<CellOutcome> cells;

  [[nodiscard]] std::size_t ok_count() const;
  [[nodiscard]] std::size_t failed_count() const;  // non-OK outcomes
  /// Indices of quarantined (non-OK) cells, in task order.
  [[nodiscard]] std::vector<std::size_t> quarantined() const;
  [[nodiscard]] bool all_ok() const { return failed_count() == 0; }
  /// Status of the lowest-index failed cell (OK when all cells succeeded).
  [[nodiscard]] Status first_failure() const;
};

class ParallelRunner {
 public:
  /// `jobs` <= 0 selects hardware_concurrency(); 1 runs serially on the
  /// calling thread with no pool.
  explicit ParallelRunner(int jobs = 0);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Run every task; results come back in task order. Each task's
  /// config.base_seed is replaced by task_seed(base_seed, ...) before
  /// execution, so identical grids yield identical results at any jobs
  /// level. The TraceViews inside the tasks must stay valid for the whole
  /// call. Convenience wrapper over the fault-tolerant overload with the
  /// kAbort policy: on failure the lowest-index failed cell's original
  /// exception is rethrown (cells already finished are discarded).
  [[nodiscard]] std::vector<CellResult> run(const std::vector<GridTask>& tasks,
                                            std::uint64_t base_seed);

  /// Fault-tolerant run: every cell executes in isolation and comes back as
  /// a CellOutcome instead of killing the sweep. Under kAbort the first
  /// failure cancels the cells that have not started (they report
  /// kCancelled); under kSkip/kRetry the sweep always completes and failed
  /// cells are quarantined in the report. Never throws for cell failures.
  /// Without a cell_runner, the tasks to execute whose derived configs
  /// differ only in target run as one twin group: one selection per
  /// replication scores them all, and each outcome (status, attempts,
  /// attempt seeds, result and config) is the one the cell would get
  /// alone. docs/PARALLELISM.md, "Task granularity", has the member rules.
  [[nodiscard]] RunReport run(const std::vector<GridTask>& tasks,
                              std::uint64_t base_seed, const RunOptions& opts);

  /// Parallel counterpart of exper::sweep_granularity (Figures 6-9); the
  /// base seed is taken from `base.base_seed`.
  [[nodiscard]] std::vector<CellResult> sweep_granularity(
      CellConfig base, const std::vector<std::uint64_t>& granularities);

  /// Parallel counterpart of exper::sweep_interval (Figures 10-11);
  /// interval i gets interval_index i in the seed derivation.
  [[nodiscard]] std::vector<CellResult> sweep_interval(
      CellConfig base, trace::TraceView full,
      const std::vector<double>& interval_seconds);

 private:
  /// Add the pool's scheduling counters accumulated since the last call to
  /// the obs registry (nondeterministic section). No-op when metrics are
  /// disabled or the runner is serial.
  void publish_pool_stats();

  int jobs_;
  std::unique_ptr<util::ThreadPool> pool_;  // null when jobs_ == 1
  util::ThreadPool::Stats pool_published_{};  // high-water of published stats
};

}  // namespace netsample::exper
