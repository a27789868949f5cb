#include "shard/worker.h"

#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "exper/journal.h"
#include "exper/runner.h"
#include "faultsim/netfault.h"
#include "obs/metrics.h"
#include "shard/grid.h"
#include "shard/protocol.h"
#include "shard/store.h"
#include "shard/transport.h"

namespace netsample::shard {

namespace {

// SIGTERM means "leave cleanly": the handler only raises a flag; the loop
// notices it between messages (the handler is installed without SA_RESTART
// so a blocking read returns EINTR) and answers with BYE + exit 0.
volatile std::sig_atomic_t g_sigterm = 0;
void sigterm_handler(int) { g_sigterm = 1; }

/// Installs the clean-departure SIGTERM handler for the duration of a
/// worker run and restores the previous disposition after (the in-process
/// test harness calls run_worker directly).
class SigtermGuard {
 public:
  SigtermGuard() {
    g_sigterm = 0;
    struct sigaction sa{};
    sa.sa_handler = sigterm_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: blocking reads must wake up
    ::sigaction(SIGTERM, &sa, &old_);
  }
  ~SigtermGuard() { ::sigaction(SIGTERM, &old_, nullptr); }

 private:
  struct sigaction old_{};
};

std::uint64_t counter_value(const char* name) {
  if (!obs::enabled()) return 0;
  return obs::registry().counter(name).value();
}

/// The trace-cache counters a HELLO reports, read when constructed. A
/// fork-only child inherits its parent's registry, so a run reports how
/// far they moved since it began, never their process-wide totals.
struct CacheCounts {
  std::uint64_t builds{counter_value("netsample_trace_cache_builds_total")};
  std::uint64_t maps{counter_value("netsample_trace_cache_maps_total")};
};

/// One worker run: the protocol loop plus (on a dialed wire) the
/// reconnect machinery. The TraceStore is opened exactly once per process
/// no matter how often the wire flaps — zero re-binning holds through
/// every reconnect, and the HELLO counters are reported once.
class WorkerSession {
 public:
  WorkerSession(const WorkerOptions& opts, const TraceStore& store,
                const CacheCounts& start)
      : opts_(opts), store_(store), start_(start) {}

  /// Run over `local`, or over a dial of opts.connect when it is null.
  Status run(std::unique_ptr<Transport> local) {
    if (!opts_.netfault.empty()) {
      auto spec = faultsim::parse_netfault_spec(opts_.netfault);
      if (!spec.has_value()) return spec.status();
      fault_ = std::make_unique<faultsim::NetFaultTransport>(*spec, nullptr);
    }
    dialed_ = local == nullptr;
    if (dialed_ ? !reconnect() : !attach(std::move(local))) {
      return Status(StatusCode::kInternal,
                    dialed_ ? "worker: cannot reach coordinator at " +
                                  opts_.connect
                            : "worker: coordinator wire closed");
    }
    return loop();
  }

 private:
  Transport& wire() { return fault_ ? *fault_ : *conn_; }

  Message hello_message() const {
    Message hello;
    hello.type = MessageType::kHello;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.packets = store_.packet_count();
    if (obs::enabled()) {
      const CacheCounts now;
      hello.cache_builds = now.builds - start_.builds;
      hello.cache_maps = now.maps - start_.maps;
    } else {
      hello.cache_builds = 0;
      hello.cache_maps = store_.cache().mapped() ? 1 : 0;
    }
    return hello;
  }

  /// Make `conn` the wire (behind the fault schedule, if any), then HELLO
  /// and whatever replies a dead wire left queued. Replayed RESULTs for
  /// cells the coordinator already committed are discarded there
  /// (dedupe), never double-committed.
  bool attach(std::unique_ptr<Transport> conn) {
    if (fault_) {
      fault_->rebind(std::move(conn));
    } else {
      conn_ = std::move(conn);
    }
    if (!wire().write_line(format_message(hello_message()))) return false;
    return flush_queued();
  }

  bool flush_queued() {
    while (!queued_.empty()) {
      if (!wire().write_line(queued_.front())) return false;
      queued_.pop_front();
    }
    return true;
  }

  /// (Re)dial opts.connect. dial() already applies the capped exponential
  /// backoff + jitter across its attempts; the outer loop bounds how many
  /// times a handshake may die mid-replay before we give up on this wire
  /// for good.
  bool reconnect() {
    for (int attempt = 0; attempt < 4; ++attempt) {
      DialOptions dopts;
      dopts.retries = opts_.connect_retries;
      auto conn = dial(opts_.connect, dopts);
      if (!conn.has_value()) return false;
      if (attach(std::move(*conn))) return true;
    }
    return false;
  }

  Status depart() {
    Message bye;
    bye.type = MessageType::kBye;
    bye.cells = cells_done_;
    (void)wire().write_line(format_message(bye));
    return Status::ok();
  }

  /// Queue a reply line, then push the queue. A write failure keeps the
  /// line queued for replay after the next reconnect.
  void deliver(const Message& reply) {
    queued_.push_back(format_message(reply));
    (void)flush_queued();
  }

  Message lease_reply(std::uint64_t index) {
    Message reply;
    reply.index = index;
    if (index >= grid_.size()) {
      reply.type = MessageType::kFail;
      reply.code = StatusCode::kInvalidArgument;
      reply.text =
          grid_.empty() ? "lease before SPEC" : "lease index out of range";
      return reply;
    }
    const exper::CellConfig cfg =
        derived_cell_config(grid_[index], spec_.base_seed);
    try {
      // Same dispatch the in-process ParallelRunner path performs through
      // RunOptions::cell_runner — both paths execute the identical per-cell
      // payload, which is what makes --workers W ≡ --jobs J bit-exact.
      const exper::CellResult result =
          spec_.workload == Workload::kFlow
              ? flow::run_flow_cell(cfg, spec_.flow,
                                    grid_estimator(spec_, index))
              : exper::run_cell(cfg);
      reply.type = MessageType::kResult;
      reply.text = exper::encode_replications(result.replications);
    } catch (const StatusError& e) {
      reply.type = MessageType::kFail;
      reply.code = e.status().code();
      reply.text = e.status().message();
    } catch (const std::exception& e) {
      reply.type = MessageType::kFail;
      reply.code = StatusCode::kInternal;
      reply.text = e.what();
    }
    return reply;
  }

  Status loop() {
    std::string line;
    while (true) {
      if (g_sigterm != 0) return depart();
      const ReadResult r = wire().is_closed() ? ReadResult::kClosed
                                              : wire().read_line(&line);
      if (r == ReadResult::kInterrupted) continue;  // SIGTERM checked on top
      if (r == ReadResult::kClosed) {
        // A local wire cannot come back: EOF is the orderly shutdown.
        if (!dialed_) return Status::ok();
        if (reconnect()) continue;
        return Status(StatusCode::kInternal,
                      "worker: lost coordinator (redial budget spent)");
      }
      if (r == ReadResult::kLine && line.empty()) continue;
      Message msg;
      if (r != ReadResult::kLine || !parse_message(line, &msg)) {
        return Status(StatusCode::kInvalidArgument,
                      "worker: malformed coordinator message");
      }
      switch (msg.type) {
        case MessageType::kSpec: {
          if (!decode_sweep_spec(msg.text, &spec_)) {
            return Status(StatusCode::kInvalidArgument,
                          "worker: malformed sweep spec");
          }
          grid_ = build_grid(spec_, store_.view(),
                             store_.mean_interarrival_usec(), &store_.cache());
          break;
        }
        case MessageType::kPing: {
          // A lost PONG is harmless: the wire loss surfaces on the next
          // read, and the coordinator's liveness deadline covers silence.
          Message pong;
          pong.type = MessageType::kPong;
          pong.index = msg.index;
          (void)wire().write_line(format_message(pong));
          break;
        }
        case MessageType::kLease: {
          const Message reply = lease_reply(msg.index);
          deliver(reply);
          if (reply.type == MessageType::kResult) {
            ++cells_done_;
            if (opts_.die_after_cells >= 0 &&
                cells_done_ >=
                    static_cast<std::uint64_t>(opts_.die_after_cells)) {
              // Simulated SIGKILL: no flush, no unwind, no BYE.
              ::_exit(137);
            }
            if (opts_.depart_after_cells >= 0 &&
                cells_done_ >=
                    static_cast<std::uint64_t>(opts_.depart_after_cells)) {
              return depart();  // scripted SIGTERM stand-in
            }
          }
          break;
        }
        case MessageType::kStop:
          return depart();
        default:
          return Status(StatusCode::kInvalidArgument,
                        "worker: unexpected message type");
      }
    }
  }

  const WorkerOptions& opts_;
  const TraceStore& store_;
  const CacheCounts start_;  // the counters when this run began
  std::unique_ptr<Transport> conn_;  // the wire, when no fault_ wraps it
  std::unique_ptr<faultsim::NetFaultTransport> fault_;  // optional wrapper
  bool dialed_{false};  // opts.connect: a lost wire redials
  std::deque<std::string> queued_;  // replies not yet written to a live wire
  SweepSpec spec_;
  std::vector<exper::GridTask> grid_;
  std::uint64_t cells_done_{0};
};

Status run_worker_common(const WorkerOptions& opts,
                         std::unique_ptr<Transport> local) {
  // A coordinator that died mid-read must surface as a write error, not a
  // process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  SigtermGuard sigterm;
  const CacheCounts start;

  StoreBackend& backend = store_backend(opts.backend);
  auto opened = TraceStore::open(opts.store_path, backend);
  if (!opened.has_value()) return opened.status();
  const TraceStore store = std::move(*opened);

  WorkerSession session(opts, store, start);
  return session.run(std::move(local));
}

}  // namespace

Status run_worker(const WorkerOptions& opts, int read_fd, int write_fd) {
  return run_worker_common(
      opts, make_fd_transport(read_fd, write_fd, kDefaultMaxLine));
}

Status run_socket_worker(const WorkerOptions& opts) {
  if (opts.connect.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "worker: socket mode needs --connect HOST:PORT");
  }
  return run_worker_common(opts, nullptr);
}

}  // namespace netsample::shard
