#include "exper/parallel.h"

#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <future>
#include <map>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/rng.h"

namespace netsample::exper {

namespace {

/// Thread CPU time in seconds; 0.0 on platforms without the POSIX clock.
double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

}  // namespace

std::uint64_t task_seed(std::uint64_t base_seed, core::Method method,
                        std::uint64_t granularity,
                        std::uint64_t interval_index) {
  return derive_seed(
      {base_seed, core::method_seed_tag(method), granularity, interval_index});
}

std::size_t RunReport::ok_count() const {
  return static_cast<std::size_t>(
      std::count_if(cells.begin(), cells.end(),
                    [](const CellOutcome& c) { return c.status.is_ok(); }));
}

std::size_t RunReport::failed_count() const { return cells.size() - ok_count(); }

std::vector<std::size_t> RunReport::quarantined() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].status.is_ok()) out.push_back(i);
  }
  return out;
}

Status RunReport::first_failure() const {
  for (const auto& c : cells) {
    if (!c.status.is_ok()) return c.status;
  }
  return Status::ok();
}

ParallelRunner::ParallelRunner(int jobs)
    : jobs_(jobs <= 0 ? static_cast<int>(util::ThreadPool::default_thread_count())
                      : jobs) {
  if (jobs_ > 1) {
    pool_ = std::make_unique<util::ThreadPool>(static_cast<std::size_t>(jobs_));
  }
}

ParallelRunner::~ParallelRunner() { publish_pool_stats(); }

void ParallelRunner::publish_pool_stats() {
  if (!pool_ || !obs::enabled()) return;
  using obs::Determinism;
  const util::ThreadPool::Stats now = pool_->stats();
  auto& reg = obs::registry();
  // All of these depend on thread timing, so they live in the
  // nondeterministic export section.
  reg.gauge("netsample_pool_threads", Determinism::kNondeterministic)
      .set(static_cast<double>(pool_->thread_count()));
  reg.gauge("netsample_pool_queue_depth_max", Determinism::kNondeterministic)
      .max(static_cast<double>(now.max_queue_depth));
  reg.counter("netsample_pool_tasks_submitted_total",
              Determinism::kNondeterministic)
      .add(now.submitted - pool_published_.submitted);
  reg.counter("netsample_pool_tasks_executed_total",
              Determinism::kNondeterministic)
      .add(now.executed - pool_published_.executed);
  reg.counter("netsample_pool_queue_wait_ns_total",
              Determinism::kNondeterministic)
      .add(now.queue_wait_ns - pool_published_.queue_wait_ns);
  reg.counter("netsample_pool_task_exec_ns_total",
              Determinism::kNondeterministic)
      .add(now.exec_ns - pool_published_.exec_ns);
  pool_published_ = now;
}

namespace {

/// What target twins share: every derived-config field but `target`. The
/// seed covers interval_index; the mean interarrival compares by bits.
using TwinKey =
    std::tuple<core::Method, std::uint64_t, const trace::PacketRecord*,
               std::size_t, std::uint64_t, int, std::uint64_t,
               const core::BinnedTraceCache*>;

TwinKey twin_key(const CellConfig& c) {
  return {c.method,
          c.granularity,
          c.interval.packets().data(),
          c.interval.size(),
          std::bit_cast<std::uint64_t>(c.mean_interarrival_usec),
          c.replications,
          c.base_seed,
          c.cache};
}

/// The Status a failed attempt reports: a StatusError keeps its own; any
/// other exception becomes kInternal with the exception's own text, as a
/// shard worker's FAIL reply does.
Status failure_status(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal, e.what());
  }
}

/// Run one twin group -- tasks whose derived configs differ only in target
/// (a single task when a cell_runner is set) -- in isolation under the
/// sweep's fault policy; returns one outcome per member, in member order.
/// Every failure mode (throw, injected fault, cancellation, deadline)
/// becomes a Status on the member's outcome instead of escaping into the
/// pool. At attempt a the sweep-cancel check and the fault injector run per
/// member; the members left run the attempt together, sharing its seed
/// (a == 0 ? cell seed : derive_seed({cell seed, a})), its watchdog token
/// and one selection per replication. A member whose own scoring throws
/// fails alone; a throw from the shared work fails every member of the
/// attempt. Failed members retry under kRetry, without the ones done.
std::vector<CellOutcome> execute_group(const std::vector<CellConfig>& configs,
                                       const std::vector<std::size_t>& members,
                                       const RunOptions& opts,
                                       const util::CancelToken* sweep_cancel) {
  const std::uint64_t cell_seed = configs[members.front()].base_seed;
  const int attempts_allowed = opts.on_error == FailPolicy::kRetry
                                   ? std::max(1, opts.max_attempts)
                                   : 1;
  std::vector<CellOutcome> outs(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    outs[m].result.config = configs[members[m]];
  }
  using Clock = std::chrono::steady_clock;
  // Every executed attempt gets a timing record, a failed one too: a
  // retried cell's wall-clock history must show all its attempts.
  auto finish = [](CellOutcome& out, double wall, double cpu) {
    AttemptRecord& rec = out.attempt_log.back();
    rec.status = out.status;
    rec.wall_seconds = wall;
    rec.cpu_seconds = cpu;
  };
  auto seconds_since = [](const Clock::time_point& start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto fail = [](CellOutcome& out, std::exception_ptr error) {
    out.status = failure_status(error);
    out.exception = std::move(error);
  };
  // External cancellation is not the cell's fault; retrying would just
  // observe it again.
  auto retriable = [](const CellOutcome& out) {
    return !out.status.is_ok() && out.status.code() != StatusCode::kCancelled;
  };

  std::vector<std::size_t> pending(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) pending[m] = m;
  for (int attempt = 0; attempt < attempts_allowed && !pending.empty();
       ++attempt) {
    const std::uint64_t seed =
        attempt == 0
            ? cell_seed
            : derive_seed({cell_seed, static_cast<std::uint64_t>(attempt)});
    std::vector<std::size_t> runnable, retry;
    for (const std::size_t m : pending) {
      CellOutcome& out = outs[m];
      // A sweep-wide cancel always wins: don't start (or retry) doomed work.
      if (sweep_cancel != nullptr && sweep_cancel->cancel_requested()) {
        out.status = Status(StatusCode::kCancelled, "sweep cancelled");
        out.exception = nullptr;
        continue;
      }
      ++out.attempts;
      out.attempt_log.push_back(AttemptRecord{Status::ok(), seed, 0, 0});
      if (opts.fault_injector) {
        const auto wall_start = Clock::now();
        const double cpu_start = thread_cpu_seconds();
        std::exception_ptr injected;
        try {
          const Status st = opts.fault_injector(members[m], attempt);
          if (!st.is_ok()) throw StatusError(st);
        } catch (const std::exception&) {
          injected = std::current_exception();
        }
        if (injected) {
          fail(out, std::move(injected));
          finish(out, seconds_since(wall_start),
                 thread_cpu_seconds() - cpu_start);
          if (retriable(out)) retry.push_back(m);
          continue;
        }
      }
      runnable.push_back(m);
    }
    if (!runnable.empty()) {
      util::CancelToken token;  // per-attempt watchdog, chained to the sweep
      token.link_parent(sweep_cancel);
      token.set_deadline_after(opts.cell_timeout_seconds);
      CellConfig cfg = configs[members[runnable.front()]];
      cfg.base_seed = seed;
      cfg.cancel = &token;
      const auto wall_start = Clock::now();
      const double cpu_start = thread_cpu_seconds();
      std::vector<TwinResult> scored;
      std::exception_ptr shared;
      try {
        obs::Span attempt_span("attempt");
        if (opts.cell_runner) {
          scored.push_back({opts.cell_runner(cfg, members[runnable.front()]),
                            nullptr});
        } else {
          std::vector<core::Target> targets;
          for (const std::size_t m : runnable) {
            targets.push_back(configs[members[m]].target);
          }
          scored = run_twins(cfg, targets);
        }
      } catch (const std::exception&) {
        shared = std::current_exception();
      }
      // The members split the shared attempt's time equally, so summed
      // attempt times never exceed the time the pool spent.
      const auto share = static_cast<double>(runnable.size());
      const double wall = seconds_since(wall_start) / share;
      const double cpu = (thread_cpu_seconds() - cpu_start) / share;
      for (std::size_t j = 0; j < runnable.size(); ++j) {
        CellOutcome& out = outs[runnable[j]];
        if (shared) {
          fail(out, shared);
        } else if (scored[j].error) {
          fail(out, scored[j].error);
        } else {
          out.result = std::move(scored[j].result);
          out.result.config.cancel = nullptr;  // the token dies with this frame
          out.status = Status::ok();
          out.exception = nullptr;
        }
        finish(out, wall, cpu);
        if (retriable(out)) retry.push_back(runnable[j]);
      }
    }
    std::sort(retry.begin(), retry.end());
    pending = std::move(retry);
  }
  return outs;
}

/// Fold one collected outcome into the obs registry. Runs on the
/// coordinating thread, in task order, so deterministic counters cannot be
/// perturbed by scheduling. Cancellation counts ARE scheduling-dependent
/// (how many cells the abort token reached first), so they live in the
/// nondeterministic section along with every duration.
void record_cell_metrics(const CellOutcome& out) {
  if (!obs::enabled()) return;
  using obs::Determinism;
  auto& reg = obs::registry();
  static obs::Counter& cells = reg.counter("netsample_sweep_cells_total");
  static obs::Counter& ok = reg.counter("netsample_sweep_cells_ok_total");
  static obs::Counter& journal =
      reg.counter("netsample_sweep_cells_from_journal_total");
  static obs::Counter& quarantined =
      reg.counter("netsample_sweep_cells_quarantined_total");
  static obs::Counter& attempts = reg.counter("netsample_sweep_attempts_total");
  static obs::Counter& retries = reg.counter("netsample_sweep_retries_total");
  static obs::Counter& cancelled = reg.counter(
      "netsample_sweep_cells_cancelled_total", Determinism::kNondeterministic);
  static obs::Counter& wall_ns = reg.counter(
      "netsample_cell_wall_ns_total", Determinism::kNondeterministic);
  static obs::Counter& cpu_ns = reg.counter("netsample_cell_cpu_ns_total",
                                            Determinism::kNondeterministic);
  static obs::Counter& retry_wall_ns = reg.counter(
      "netsample_retry_wall_ns_total", Determinism::kNondeterministic);
  static obs::HistogramMetric& wall_hist =
      reg.histogram("netsample_cell_wall_seconds", obs::duration_bin_edges(),
                    Determinism::kNondeterministic);

  cells.increment();
  if (out.from_journal) journal.increment();
  if (out.status.is_ok()) {
    ok.increment();
  } else if (out.status.code() == StatusCode::kCancelled) {
    cancelled.increment();
  } else {
    quarantined.increment();
  }
  attempts.add(static_cast<std::uint64_t>(out.attempts));
  if (out.attempts > 1) {
    retries.add(static_cast<std::uint64_t>(out.attempts - 1));
  }
  for (const AttemptRecord& rec : out.attempt_log) {
    wall_ns.add(static_cast<std::uint64_t>(rec.wall_seconds * 1e9));
    cpu_ns.add(static_cast<std::uint64_t>(rec.cpu_seconds * 1e9));
    wall_hist.observe(rec.wall_seconds);
    if (!rec.status.is_ok()) {
      retry_wall_ns.add(static_cast<std::uint64_t>(rec.wall_seconds * 1e9));
    }
  }
}

}  // namespace

RunReport ParallelRunner::run(const std::vector<GridTask>& tasks,
                              std::uint64_t base_seed, const RunOptions& opts) {
  std::vector<CellConfig> configs;
  std::vector<std::string> keys;
  configs.reserve(tasks.size());
  keys.reserve(tasks.size());
  for (const auto& t : tasks) {
    CellConfig cfg = t.config;
    cfg.base_seed =
        task_seed(base_seed, cfg.method, cfg.granularity, t.interval_index);
    cfg.cancel = nullptr;
    configs.push_back(cfg);
    keys.push_back(opts.journal != nullptr
                       ? cell_journal_key(cfg, t.interval_index) +
                             t.journal_suffix
                       : std::string());
  }

  // Under kAbort the first genuine failure trips this token and the cells
  // whose group has not started come back kCancelled; external cancellation
  // (opts.cancel) propagates through the parent link under every policy.
  util::CancelToken abort_token;
  abort_token.link_parent(opts.cancel);

  auto replay_from_journal =
      [&](std::size_t i) -> const std::vector<core::DisparityMetrics>* {
    return opts.journal != nullptr ? opts.journal->find(keys[i]) : nullptr;
  };

  // One pool task per twin group of the cells to execute. A cell_runner is
  // opaque, so under one every cell is its own group.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> group_of(tasks.size());
  std::vector<std::size_t> slot_of(tasks.size());
  std::map<TwinKey, std::size_t> group_by_key;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (replay_from_journal(i) != nullptr) continue;
    std::size_t g = groups.size();
    if (!opts.cell_runner) {
      g = group_by_key.try_emplace(twin_key(configs[i]), g).first->second;
    }
    if (g == groups.size()) groups.emplace_back();
    group_of[i] = g;
    slot_of[i] = groups[g].size();
    groups[g].push_back(i);
  }

  // Trace chain: sweep (this thread) → cell (one per group, on a worker
  // thread, explicit parent because thread-locals do not follow tasks
  // through the pool) → attempt / kernel spans (implicit, same-thread).
  obs::Span sweep_span("sweep");
  const std::uint64_t sweep_span_id = sweep_span.id();

  auto run_group = [&](std::size_t g) {
    obs::Span cell_span("cell", sweep_span_id);
    auto outs = execute_group(configs, groups[g], opts, &abort_token);
    if (opts.on_error == FailPolicy::kAbort &&
        std::any_of(outs.begin(), outs.end(), [](const CellOutcome& out) {
          return !out.status.is_ok() &&
                 out.status.code() != StatusCode::kCancelled;
        })) {
      abort_token.cancel();
    }
    return outs;
  };

  RunReport report;
  report.cells.resize(tasks.size());

  // Fan the groups out (or run each inline, at its first member, at
  // jobs == 1), then collect in task order: journaled cells replay from
  // disk, computed OK cells are checkpointed, and the on_cell_done hook
  // observes every outcome in a deterministic order on this thread.
  std::vector<std::future<std::vector<CellOutcome>>> futures(groups.size());
  if (pool_) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      futures[g] = pool_->submit([&run_group, g] { return run_group(g); });
    }
  }
  std::vector<std::vector<CellOutcome>> outcomes(groups.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    CellOutcome& out = report.cells[i];
    if (const auto* reps = replay_from_journal(i)) {
      out.status = Status::ok();
      out.result.config = configs[i];
      out.result.replications = *reps;
      out.from_journal = true;
    } else {
      auto& group = outcomes[group_of[i]];
      if (group.empty()) {
        group = pool_ ? futures[group_of[i]].get() : run_group(group_of[i]);
      }
      out = std::move(group[slot_of[i]]);
      if (out.status.is_ok() && opts.journal != nullptr) {
        // A checkpoint write failure does not invalidate the computed cell;
        // it only costs re-execution on a future resume.
        (void)opts.journal->record(keys[i], out.result.replications);
      }
    }
    record_cell_metrics(out);
    if (opts.on_cell_done) opts.on_cell_done(i, out.status);
  }
  // A group goes uncollected when a duplicate journal key served all its
  // members from the journal; its task still references this frame.
  for (auto& f : futures) {
    if (f.valid()) f.wait();
  }
  publish_pool_stats();
  return report;
}

std::vector<CellResult> ParallelRunner::run(const std::vector<GridTask>& tasks,
                                            std::uint64_t base_seed) {
  RunReport report = run(tasks, base_seed, RunOptions{});
  // Legacy contract: the lowest-index *genuine* failure rethrows with its
  // original type (cells cancelled by the abort are collateral, not causes).
  for (const auto& c : report.cells) {
    if (!c.status.is_ok() && c.exception != nullptr) {
      std::rethrow_exception(c.exception);
    }
  }
  for (const auto& c : report.cells) {
    if (!c.status.is_ok()) throw StatusError(c.status);
  }
  std::vector<CellResult> results;
  results.reserve(report.cells.size());
  for (auto& c : report.cells) results.push_back(std::move(c.result));
  return results;
}

std::vector<CellResult> ParallelRunner::sweep_granularity(
    CellConfig base, const std::vector<std::uint64_t>& granularities) {
  std::vector<GridTask> tasks;
  tasks.reserve(granularities.size());
  for (std::uint64_t k : granularities) {
    GridTask t;
    t.config = base;
    t.config.granularity = k;
    tasks.push_back(t);
  }
  obs::Span ladder_span("ladder");  // run()'s sweep span chains under this
  return run(tasks, base.base_seed);
}

std::vector<CellResult> ParallelRunner::sweep_interval(
    CellConfig base, trace::TraceView full,
    const std::vector<double>& interval_seconds) {
  std::vector<GridTask> tasks;
  tasks.reserve(interval_seconds.size());
  for (std::size_t i = 0; i < interval_seconds.size(); ++i) {
    GridTask t;
    t.config = base;
    t.config.interval =
        full.prefix_duration(MicroDuration::from_seconds(interval_seconds[i]));
    t.interval_index = i;
    tasks.push_back(t);
  }
  obs::Span ladder_span("ladder");  // run()'s sweep span chains under this
  return run(tasks, base.base_seed);
}

}  // namespace netsample::exper
