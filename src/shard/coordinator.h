// The coordinator half of a sharded sweep.
//
// One coordinator process owns the grid, the checkpoint journal, and N
// worker processes. Work is handed out as LEASEs (grid indices) over a
// Transport — a socketpair per locally spawned worker, or a TCP socket so
// workers can live on other machines — and results stream back and are
// committed to the journal BY THE COORDINATOR ONLY, in task order.
// Workers are stateless, so the exactly-once contract reduces to "a cell
// is journaled exactly when its RESULT was first accepted", and every
// failure mode collapses into reassignment:
//
//   worker killed            EOF / reaped        leases requeued at front
//   wire lost (socket)       EOF                 leases requeued; worker may
//                                                redial within the reconnect
//                                                window and re-HELLO
//   worker stalls, wire up   lease timeout       leases reclaimed; worker is
//                                                suspended, then treated
//                                                dead if still silent
//   half-open connection     heartbeat deadline  connection closed; socket
//                            (idle workers only) workers redial
//   worker departs (SIGTERM) BYE                 logged as departure, not
//                                                death; leases requeued
//
// Duplicate RESULTs (a reconnect replay, a reclaimed lease completing
// twice) are discarded by cell state — recomputed cells are bit-identical
// by construction, so acceptance order cannot change any byte of output.
//
// Determinism: a cell's seed derives from its grid coordinates
// (derived_cell_config), never from which worker ran it or in what order
// results arrived, so a W-worker sweep is bit-identical to the --jobs J
// threaded sweep for any W and J — tables, journal contents, and
// selected-index sets — on either transport, under any injected fault
// schedule. docs/SHARDING.md spells out the protocol and the failure
// matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "exper/journal.h"
#include "shard/grid.h"
#include "util/status.h"

namespace netsample::shard {

enum class TransportKind {
  kPipe,    // fork/exec children, one socketpair each; EOF is death
  kSocket,  // TCP: coordinator listens, workers dial (and redial)
};

struct CoordinatorOptions {
  /// Worker processes to spawn (>= 1).
  int workers{2};
  /// Prebuilt TraceStore every worker opens (see write_trace_store).
  std::string store_path;
  /// StoreBackend name the workers (and the coordinator itself) use.
  std::string backend{"mmap"};
  /// Optional commit log. Journaled cells are served without leasing;
  /// completed cells are recorded in task order, matching what
  /// ParallelRunner::run would have written for the same grid.
  exper::CheckpointJournal* journal{nullptr};
  /// argv for exec'd workers (argv[0] is the binary; "--store"/"--store-
  /// backend" — plus "--connect"/"--connect-retries"/"--netfault" in socket
  /// mode — are appended); a local worker has its socketpair end as
  /// stdin/stdout. Empty selects fork-only mode: the child calls
  /// run_worker / run_socket_worker directly with no exec.
  std::vector<std::string> worker_command;
  /// Deterministic chaos: after accepting this many RESULTs, SIGKILL one
  /// worker that still has outstanding leases (< 0 disables). The kill is
  /// a real SIGKILL; the victim's leases are reassigned and the sweep must
  /// still finish bit-identically — CI's multiproc ASan leg runs this.
  int chaos_kill_after{-1};
  /// Replacement spawns allowed after unexpected worker deaths before the
  /// remaining cells are failed with kInternal.
  int max_respawns{8};
  /// Per-worker die-after-N-cells chaos (WorkerOptions::die_after_cells,
  /// or "--die-after" appended in exec mode) — applied to the FIRST spawned
  /// worker only, initial spawn only, so tests can script exactly one
  /// mid-sweep death without signals. < 0 disables.
  int first_worker_die_after{-1};
  /// Like first_worker_die_after but a clean departure: the worker sends
  /// BYE and exits 0 after N cells (WorkerOptions::depart_after_cells).
  int first_worker_depart_after{-1};

  /// How lease-protocol lines travel (see TransportKind).
  TransportKind transport{TransportKind::kPipe};
  /// Socket transport bind address; port 0 picks an ephemeral port that
  /// spawned workers are pointed at automatically.
  std::string listen{"127.0.0.1:0"};
  /// Heartbeat period in seconds (0 = off). The coordinator PINGs every
  /// connected worker on this cadence; a worker with NO outstanding leases
  /// that stays silent for 4 heartbeat periods is treated as a half-open
  /// connection and disconnected. Busy workers are exempt — a
  /// single-threaded worker cannot PONG mid-cell; the lease timeout
  /// governs those.
  double heartbeat_interval_s{0.0};
  /// Lease expiry in seconds (0 = off): a lease older than this is
  /// reclaimed and reassigned even though the worker's wire is up
  /// (stalled-but-connected). The worker is suspended from new grants
  /// until it speaks again; silent through one more timeout, it is
  /// disconnected. A late duplicate RESULT is discarded harmlessly.
  double lease_timeout_s{0.0};
  /// Socket only: how long a vanished worker may redial (and a spawned
  /// worker may take to first connect) before it is declared dead.
  double reconnect_window_s{10.0};
  /// Worker-side redial budget per lost connection, forwarded to workers.
  int connect_retries{5};
  /// Worker-side wire-impairment schedule (faultsim netfault codec),
  /// forwarded to workers; empty = clean wire.
  std::string netfault;
};

/// Outcome of one grid cell, in task order.
struct ShardCellOutcome {
  Status status;
  std::vector<core::DisparityMetrics> replications;
  bool from_journal{false};
};

struct ShardReport {
  std::vector<ShardCellOutcome> cells;

  // Scheduling facts (nondeterministic under failures; reported for
  // observability, never for results).
  std::uint64_t leases_granted{0};
  std::uint64_t reassignments{0};
  std::uint64_t workers_spawned{0};
  std::uint64_t workers_killed{0};    // chaos kills we initiated
  std::uint64_t workers_died{0};      // unexpected deaths observed
  std::uint64_t workers_departed{0};  // clean BYE departures (not deaths)
  std::uint64_t leases_expired{0};    // reclaimed from stalled workers
  std::uint64_t reconnects{0};        // re-HELLOs bound to a known worker
  std::uint64_t pings_sent{0};
  /// Summed from worker HELLOs: re-bins performed by workers (the
  /// zero-re-binning acceptance: stays 0) and store mappings.
  std::uint64_t worker_cache_builds{0};
  std::uint64_t worker_cache_maps{0};

  [[nodiscard]] std::size_t ok_count() const;
  [[nodiscard]] std::size_t from_journal_count() const;
  [[nodiscard]] bool all_ok() const;
  /// Status of the lowest-index failed cell (OK when none failed).
  [[nodiscard]] Status first_failure() const;
};

/// Run `spec` over the store with `opts.workers` processes. Returns a
/// non-OK status only for coordinator-level failures (store invalid, spawn
/// impossible, listen address unusable); per-cell failures and worker
/// deaths are quarantined inside the report instead.
[[nodiscard]] StatusOr<ShardReport> run_sharded_sweep(
    const SweepSpec& spec, const CoordinatorOptions& opts);

}  // namespace netsample::shard
