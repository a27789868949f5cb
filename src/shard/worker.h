// The worker half of a sharded sweep: a stateless lease executor.
//
// A worker opens the shared TraceStore read-only through a StoreBackend
// (mmap by default — zero re-binning, zero private copies of the
// population), rebuilds the deterministic cell grid from the SPEC message,
// and then runs whatever grid indices the coordinator leases to it,
// answering each with the cell's replication metrics in the journal's
// bit-exact hexfloat codec. It keeps NO durable state: the coordinator owns
// the journal, so a worker can be SIGKILL'd at any instant and the sweep
// still completes exactly-once.
//
// Two entry points, one per wire origin, share one loop, and both read
// through the fd transport's bounded line framer (docs/FORMATS.md §5):
//   - run_worker(opts, read_fd, write_fd): a connected local wire — the
//     socketpair end of a fork-only child, or the stdin/stdout of
//     `netsample worker` without --connect (the same socketpair end when
//     the coordinator execs it);
//   - run_socket_worker(opts): dial --connect HOST:PORT, with automatic
//     reconnection — capped exponential backoff + jitter, an idempotent
//     re-HELLO, and a bounded replay of the most recent RESULT lines so a
//     reply that died with the connection still reaches the coordinator
//     (which dedupes; a replayed cell is never committed twice).
//
// Failure behavior on the worker side of the model:
//   - SIGTERM: finish or abandon the in-flight read, send BYE, exit clean
//     (the coordinator logs a departure, not a death);
//   - dialed wire lost: redial within the retry budget, re-HELLO, replay
//     unacknowledged results, continue; budget exhausted is kInternal
//     (exit 70);
//   - local wire lost: there is nothing to redial — EOF is an orderly
//     shutdown;
//   - a malformed or over-long coordinator line: kInvalidArgument.
#pragma once

#include <string>

#include "util/status.h"

namespace netsample::shard {

struct WorkerOptions {
  std::string store_path;
  std::string backend{"mmap"};
  /// Deterministic chaos hook: after sending this many RESULTs, die with
  /// _exit(137) — no flush, no unwind, indistinguishable from SIGKILL to
  /// the coordinator. < 0 disables. Resume/reassignment tests script kills
  /// at exact points with this.
  int die_after_cells{-1};
  /// Clean-departure chaos hook: after this many RESULTs, behave exactly
  /// like a SIGTERM — send BYE and return OK. < 0 disables.
  int depart_after_cells{-1};
  /// Socket mode (run_socket_worker): coordinator address to dial.
  std::string connect;
  /// Redial attempts after a lost connection (socket mode).
  int connect_retries{5};
  /// Optional wire-impairment schedule (faultsim netfault codec, e.g.
  /// "seed=7,drop=0.1"); empty = clean wire. Applied on the worker side of
  /// every connection, including redials (the schedule persists).
  std::string netfault;
};

/// Speak the worker protocol over a connected local wire (read_fd ==
/// write_fd for a socket) until STOP or EOF; takes ownership of both fds.
/// Returns OK on a clean shutdown; a store that fails validation returns
/// its open() status (kDataLoss for corrupt/truncated/mismatched stores,
/// kNotFound for a missing file) before any message is exchanged. Throws
/// std::invalid_argument for an unknown backend name.
[[nodiscard]] Status run_worker(const WorkerOptions& opts, int read_fd,
                                int write_fd);

/// Dial opts.connect and run the loop with reconnection (see above).
[[nodiscard]] Status run_socket_worker(const WorkerOptions& opts);

}  // namespace netsample::shard
