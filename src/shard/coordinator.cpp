#include "shard/coordinator.h"

#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "shard/protocol.h"
#include "shard/store.h"
#include "shard/transport.h"
#include "shard/worker.h"

namespace netsample::shard {

std::size_t ShardReport::ok_count() const {
  std::size_t n = 0;
  for (const auto& c : cells) {
    if (c.status.is_ok()) ++n;
  }
  return n;
}

std::size_t ShardReport::from_journal_count() const {
  std::size_t n = 0;
  for (const auto& c : cells) {
    if (c.from_journal) ++n;
  }
  return n;
}

bool ShardReport::all_ok() const { return ok_count() == cells.size(); }

Status ShardReport::first_failure() const {
  for (const auto& c : cells) {
    if (!c.status.is_ok()) return c.status;
  }
  return Status::ok();
}

namespace {

using Clock = std::chrono::steady_clock;

/// A descriptor that polls readable once child `pid` exits (a Linux
/// pidfd), or -1 where the kernel offers none; the caller then wakes on its
/// poll timeout instead.
int open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  return -1;
#endif
}

/// Floating seconds -> the steady clock's native duration, so time_point
/// arithmetic stays in one representation.
Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// How many leases a worker holds at once. Depth 2 hides the lease round
// trip: the next cell is already queued on the wire while the current one
// computes. Results stay deterministic at any depth (seeds are positional).
constexpr std::size_t kLeaseDepth = 2;

enum CellState : unsigned char { kPending = 0, kLeased, kDone };

enum class Departure { kUnexpected, kClean };

/// One worker identity. The connection (chan) and the process (pid) have
/// independent lifetimes in socket mode: a wire can die and come back
/// (awaiting + re-HELLO) while the process lives, and a process can be
/// reaped while its last bytes still sit in the socket. `dead` is final.
struct Slot {
  pid_t pid{-1};
  bool proc_alive{false};  // we spawned it and have not reaped it
  int exit_fd{-1};         // pidfd of that process: readable once it exits
  bool scripted{false};    // carries a die/depart-after drill
  bool external{false};    // connected on its own; not our child
  bool dead{false};
  std::unique_ptr<Transport> chan;
  bool awaiting{false};  // expecting a (re)connection before the deadline
  Clock::time_point awaiting_deadline{};
  bool ever_connected{false};
  bool hello_counted{false};
  bool suspended{false};  // a lease expired; no new grants until it speaks
  Clock::time_point probation_deadline{};
  /// The lease ledger: every cell this worker holds, with the time its
  /// LEASE went out, in ascending cell order.
  std::map<std::uint64_t, Clock::time_point> leases;
  Clock::time_point last_heard_{};
  Clock::time_point last_ping_{};
};

/// An accepted socket that has not said HELLO yet — not a worker until it
/// identifies itself (or a stale duplicate; either way it gets a deadline).
struct PendingConn {
  std::unique_ptr<Transport> chan;
  Clock::time_point deadline;
};

class Coordinator {
 public:
  Coordinator(const SweepSpec& spec, const CoordinatorOptions& opts)
      : spec_(spec),
        opts_(opts),
        socket_mode_(opts.transport == TransportKind::kSocket),
        hb_(opts.heartbeat_interval_s),
        lt_(opts.lease_timeout_s),
        window_(opts.reconnect_window_s) {}

  /// Abort-path safety net: whatever is still alive gets SIGKILL'd and
  /// reaped, so no error return leaks children.
  ~Coordinator() {
    for (auto& s : slots_) {
      if (s.proc_alive) {
        ::kill(s.pid, SIGKILL);
        int st = 0;
        ::waitpid(s.pid, &st, 0);
        reaped(s);
      }
    }
  }

  StatusOr<ShardReport> run();

 private:
  // ---- wiring ----------------------------------------------------------

  static bool connected(const Slot& s) {
    return s.chan != nullptr && !s.chan->is_closed();
  }

  /// Bookkeeping once waitpid has collected s's process.
  static void reaped(Slot& s) {
    s.proc_alive = false;
    if (s.exit_fd >= 0) ::close(s.exit_fd);
    s.exit_fd = -1;
  }

  std::size_t capacity() const {
    std::size_t c = 0;
    for (const auto& s : slots_) {
      if (!s.dead && (connected(s) || s.awaiting)) ++c;
    }
    return c;
  }

  /// Spawn (or respawn) one worker process into slots_[si]. In pipe mode
  /// the wire exists immediately; in socket mode the slot waits for the
  /// worker to dial back (awaiting, bounded by the reconnect window).
  bool spawn_into(std::size_t si) {
    Slot& s = slots_[si];
    s = Slot{};
    const bool give_die =
        !first_spawn_done_ && opts_.first_worker_die_after >= 0;
    const bool give_depart =
        !first_spawn_done_ && opts_.first_worker_depart_after >= 0;

    int c2w[2] = {-1, -1};
    int w2c[2] = {-1, -1};
    if (!socket_mode_) {
      if (::pipe(c2w) != 0) return false;
      if (::pipe(w2c) != 0) {
        ::close(c2w[0]);
        ::close(c2w[1]);
        return false;
      }
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
      if (!socket_mode_) {
        ::close(c2w[0]);
        ::close(c2w[1]);
        ::close(w2c[0]);
        ::close(w2c[1]);
      }
      return false;
    }
    if (pid == 0) {
      // Child. Drop every parent-side descriptor we inherited — our own
      // pipe's far ends (so EOF propagates), every sibling wire and exit
      // descriptor, and the listener — so a sibling's death is visible to
      // the coordinator as EOF and nobody but the coordinator can accept().
      std::vector<int> parent_fds;
      if (listener_.fd() >= 0) parent_fds.push_back(listener_.fd());
      for (const auto& other : slots_) {
        if (other.chan) other.chan->append_fds(&parent_fds);
        if (other.exit_fd >= 0) parent_fds.push_back(other.exit_fd);
      }
      for (const auto& pc : pending_conns_) {
        pc.chan->append_fds(&parent_fds);
      }
      if (!socket_mode_) {
        parent_fds.push_back(c2w[1]);
        parent_fds.push_back(w2c[0]);
      }
      for (const int fd : parent_fds) ::close(fd);

      if (!opts_.worker_command.empty()) {
        std::vector<std::string> argv_s = opts_.worker_command;
        argv_s.push_back("--store");
        argv_s.push_back(opts_.store_path);
        argv_s.push_back("--store-backend");
        argv_s.push_back(opts_.backend);
        if (socket_mode_) {
          argv_s.push_back("--connect");
          argv_s.push_back(listen_addr_);
          argv_s.push_back("--connect-retries");
          argv_s.push_back(std::to_string(opts_.connect_retries));
        }
        if (!opts_.netfault.empty()) {
          argv_s.push_back("--netfault");
          argv_s.push_back(opts_.netfault);
        }
        if (give_die) {
          argv_s.push_back("--die-after");
          argv_s.push_back(std::to_string(opts_.first_worker_die_after));
        }
        if (give_depart) {
          argv_s.push_back("--depart-after");
          argv_s.push_back(std::to_string(opts_.first_worker_depart_after));
        }
        if (!socket_mode_) {
          ::dup2(c2w[0], STDIN_FILENO);
          ::dup2(w2c[1], STDOUT_FILENO);
          ::close(c2w[0]);
          ::close(w2c[1]);
        }
        std::vector<char*> argv;
        argv.reserve(argv_s.size() + 1);
        for (auto& a : argv_s) argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        ::_exit(127);
      }

      WorkerOptions wopts;
      wopts.store_path = opts_.store_path;
      wopts.backend = opts_.backend;
      wopts.netfault = opts_.netfault;
      if (give_die) wopts.die_after_cells = opts_.first_worker_die_after;
      if (give_depart) {
        wopts.depart_after_cells = opts_.first_worker_depart_after;
      }
      Status st;
      if (socket_mode_) {
        wopts.connect = listen_addr_;
        wopts.connect_retries = opts_.connect_retries;
        st = run_socket_worker(wopts);
      } else {
        std::FILE* fin = ::fdopen(c2w[0], "r");
        std::FILE* fout = ::fdopen(w2c[1], "w");
        if (fin == nullptr || fout == nullptr) ::_exit(127);
        st = run_worker(wopts, fin, fout);
      }
      ::_exit(st.is_ok() ? 0 : 70);
    }

    // Parent.
    s.pid = pid;
    s.proc_alive = true;
    s.exit_fd = open_pidfd(pid);
    s.scripted = give_die || give_depart;
    ++report_.workers_spawned;
    first_spawn_done_ = true;
    if (socket_mode_) {
      s.awaiting = true;
      s.awaiting_deadline = Clock::now() + window_dur();
    } else {
      ::close(c2w[0]);
      ::close(w2c[1]);
      attach(s, make_fd_transport(w2c[0], c2w[1]));
    }
    return true;
  }

  /// Bind a live wire to a slot: (re)send the SPEC — rebuilding the grid
  /// is idempotent — and top the worker up with leases. A reconnect to a
  /// slot that somehow still holds a wire drops the old one first.
  void attach(Slot& s, std::unique_ptr<Transport> chan) {
    if (s.chan) {
      s.chan->close();
      s.chan.reset();
      reclaim_leases(s);
    }
    s.chan = std::move(chan);
    s.awaiting = false;
    s.suspended = false;
    const auto t = Clock::now();
    s.last_heard_ = t;
    s.last_ping_ = t;
    if (s.ever_connected) ++report_.reconnects;
    s.ever_connected = true;
    if (!s.chan->write_line(spec_line_)) return;  // EOF will surface it
    grant(s);
  }

  /// A die/depart drill scripts the first worker to leave after N cells.
  /// Its peers get no lease until it has left, so no peer can drain the
  /// grid before the drill fires, and the cells it still held are pending
  /// when the coordinator decides whether to respawn. The main loop tops
  /// the peers up right after that decision.
  bool held_back(const Slot& s) const {
    if (s.scripted) return false;
    for (const auto& other : slots_) {
      if (other.scripted && !other.dead) return true;
    }
    return false;
  }

  /// Top a worker up to kLeaseDepth outstanding leases.
  void grant(Slot& s) {
    if (held_back(s)) return;
    while (connected(s) && !s.suspended &&
           s.leases.size() < kLeaseDepth) {
      // Skip queue entries a late duplicate already completed.
      while (!pending_.empty() && state_[pending_.front()] != kPending) {
        pending_.pop_front();
      }
      if (pending_.empty()) break;
      const std::uint64_t idx = pending_.front();
      pending_.pop_front();
      state_[idx] = kLeased;
      s.leases[idx] = Clock::now();
      ++report_.leases_granted;
      Message lease;
      lease.type = MessageType::kLease;
      lease.index = idx;
      if (!s.chan->write_line(format_message(lease))) break;
    }
  }

  void refill_all() {
    for (auto& s : slots_) {
      if (connected(s)) grant(s);
    }
  }

  /// Put a slot's leases sent at or before `sent_by` (all of them by
  /// default) back at the FRONT of the queue in ascending order, so
  /// recovery recomputes the earliest missing cells first and the journal
  /// cursor unblocks soonest. Returns how many went back.
  std::size_t reclaim_leases(
      Slot& s, Clock::time_point sent_by = Clock::time_point::max()) {
    std::size_t reclaimed = 0;
    for (auto it = s.leases.rbegin(); it != s.leases.rend(); ++it) {
      if (it->second <= sent_by && state_[it->first] == kLeased) {
        state_[it->first] = kPending;
        pending_.push_front(it->first);
        ++report_.reassignments;
        ++reclaimed;
      }
    }
    std::erase_if(s.leases, [sent_by](const auto& lease) {
      return lease.second <= sent_by;
    });
    return reclaimed;
  }

  /// The wire died. Pipes cannot come back — that is a death. A socket
  /// worker whose process (or remote peer) may still be alive gets a
  /// reconnect window; its leases are reassigned NOW (someone else can
  /// run them; a duplicate result is discarded by cell state).
  void on_disconnect(Slot& s) {
    if (s.chan) {
      s.chan->close();
      s.chan.reset();
    }
    reclaim_leases(s);
    if (socket_mode_ && !s.dead && (s.proc_alive || s.external)) {
      s.awaiting = true;
      s.awaiting_deadline = Clock::now() + window_dur();
      s.suspended = false;
      return;
    }
    finalize_death(s, Departure::kUnexpected);
  }

  void finalize_death(Slot& s, Departure kind) {
    if (s.dead) return;
    if (s.chan) {
      s.chan->close();
      s.chan.reset();
    }
    reclaim_leases(s);
    if (s.proc_alive) {
      if (kind == Departure::kUnexpected) ::kill(s.pid, SIGKILL);
      int st = 0;
      ::waitpid(s.pid, &st, 0);
      reaped(s);
    }
    s.awaiting = false;
    s.suspended = false;
    s.dead = true;
    if (kind == Departure::kUnexpected) {
      ++report_.workers_died;
    } else {
      ++report_.workers_departed;
    }
  }

  /// Nonblocking reap. A reaped process that was awaiting a reconnect is
  /// done for good; one with a live wire drains to EOF first (its last
  /// bytes may still sit in the socket).
  void reap_children() {
    for (auto& s : slots_) {
      if (!s.proc_alive) continue;
      int st = 0;
      if (::waitpid(s.pid, &st, WNOHANG) != s.pid) continue;
      reaped(s);
      if (!connected(s) && !s.dead) finalize_death(s, Departure::kUnexpected);
    }
  }

  // ---- protocol --------------------------------------------------------

  void advance_journal() {
    while (next_journal_ < n_ && state_[next_journal_] == kDone) {
      const ShardCellOutcome& out = report_.cells[next_journal_];
      if (!out.from_journal && out.status.is_ok() &&
          opts_.journal != nullptr) {
        // A checkpoint write failure does not invalidate the computed
        // cell; it only costs re-execution on a future resume.
        (void)opts_.journal->record(keys_[next_journal_], out.replications);
      }
      ++next_journal_;
    }
  }

  /// Chaos: SIGKILL a worker that is mid-lease. Death is then observed via
  /// the normal EOF/reap path — the coordinator takes no shortcut, which
  /// is the point of the drill.
  void maybe_chaos_kill() {
    if (opts_.chaos_kill_after < 0 || report_.workers_killed > 0) return;
    if (results_received_ <
        static_cast<std::uint64_t>(opts_.chaos_kill_after)) {
      return;
    }
    for (auto& s : slots_) {
      if (connected(s) && s.proc_alive && !s.leases.empty()) {
        ::kill(s.pid, SIGKILL);
        ++report_.workers_killed;
        return;
      }
    }
  }

  /// One message from a bound worker. Returns false when the slot was
  /// finalized (departed or killed) — the caller must drop its remaining
  /// drained lines.
  bool handle_message(Slot& s, const Message& msg) {
    s.last_heard_ = Clock::now();
    s.suspended = false;  // it speaks; grants may resume

    switch (msg.type) {
      case MessageType::kHello:
        if (!s.hello_counted) {
          report_.worker_cache_builds += msg.cache_builds;
          report_.worker_cache_maps += msg.cache_maps;
          s.hello_counted = true;
        }
        grant(s);
        return true;
      case MessageType::kPong:
        // The PONG may be what lifts a post-expiry suspension: top the
        // worker back up or it idles forever with work still pending.
        grant(s);
        return true;
      case MessageType::kBye:
        // A clean departure (SIGTERM, depart-after drill): not a death.
        finalize_death(s, Departure::kClean);
        return false;
      case MessageType::kResult:
      case MessageType::kFail:
        break;
      default:
        return true;  // coordinator verbs echoed back: ignore
    }

    const std::uint64_t idx = msg.index;
    if (idx >= n_) {
      finalize_death(s, Departure::kUnexpected);  // garbage index: killed
      return false;
    }
    // Clear the sender's bookkeeping BEFORE the duplicate check, so a
    // duplicate (reconnect replay, reclaimed lease finishing twice) can
    // never pin a stale lease in the ledger and starve the worker.
    const auto sent = s.leases.find(idx);
    if (obs::enabled() && sent != s.leases.end()) {
      static obs::HistogramMetric& lease_hist = obs::registry().histogram(
          "netsample_shard_lease_seconds", obs::duration_bin_edges(),
          obs::Determinism::kNondeterministic);
      lease_hist.observe(
          std::chrono::duration<double>(Clock::now() - sent->second).count());
    }
    if (sent != s.leases.end()) s.leases.erase(sent);
    if (state_[idx] == kDone) {
      grant(s);
      return true;  // duplicate: discarded, never re-committed
    }

    ShardCellOutcome& out = report_.cells[idx];
    if (msg.type == MessageType::kResult) {
      std::vector<core::DisparityMetrics> reps;
      if (!exper::decode_replications(msg.text, &reps)) {
        // Torn or corrupt payload: the worker is dead to us and the cell
        // is recomputed elsewhere — a partial row must never be accepted,
        // let alone journaled.
        state_[idx] = kPending;
        pending_.push_front(idx);
        ++report_.reassignments;
        finalize_death(s, Departure::kUnexpected);
        return false;
      }
      out.status = Status::ok();
      out.replications = std::move(reps);
    } else {
      out.status = Status(msg.code, msg.text);
    }
    state_[idx] = kDone;
    ++done_count_;
    ++results_received_;
    // Another slot may hold a lease on this cell (it was reassigned and
    // the original still delivered). Drop those now; their late RESULT
    // will be discarded as a duplicate.
    for (auto& other : slots_) {
      if (&other == &s) continue;
      other.leases.erase(idx);
    }
    advance_journal();
    maybe_chaos_kill();
    grant(s);
    return true;
  }

  /// Drained lines from a bound slot: strict-parse each; garbage means the
  /// worker is treated as dead, exactly as a kill.
  void handle_slot_lines(Slot& s, const std::vector<std::string>& lines) {
    for (const auto& line : lines) {
      if (s.dead) return;
      if (line.empty()) continue;
      Message msg;
      if (!parse_message(line, &msg)) {
        finalize_death(s, Departure::kUnexpected);
        return;
      }
      if (!handle_message(s, msg)) return;
    }
  }

  /// First line on an accepted socket must be HELLO; the pid is the
  /// worker's identity and binds the wire to its slot (reconnect) or to a
  /// fresh external slot. Remaining drained lines (a replay burst rides
  /// the same packet) are fed to the bound slot.
  void bind_pending(std::unique_ptr<Transport> chan,
                    std::vector<std::string> lines) {
    if (lines.empty()) return;  // nothing to bind with; conn stays pending
    Message hello;
    if (!parse_message(lines.front(), &hello) ||
        hello.type != MessageType::kHello) {
      chan->close();
      return;  // not a worker; drop the connection
    }
    Slot* target = nullptr;
    for (auto& s : slots_) {
      if (!s.dead && s.pid == static_cast<pid_t>(hello.pid)) {
        target = &s;
        break;
      }
    }
    if (target == nullptr) {
      slots_.push_back(Slot{});
      target = &slots_.back();
      target->pid = static_cast<pid_t>(hello.pid);
      target->external = true;
    }
    attach(*target, std::move(chan));
    handle_message(*target, hello);
    lines.erase(lines.begin());
    handle_slot_lines(*target, lines);
  }

  // ---- timers ----------------------------------------------------------

  Clock::duration window_dur() const { return secs(window_); }

  /// Fire every due timer (heartbeats, liveness, lease expiry, probation,
  /// reconnect windows, handshake deadlines) and return the poll timeout
  /// in ms until the next one (-1 = none pending).
  int fire_timers() {
    const auto t = Clock::now();
    std::optional<Clock::time_point> next;
    const auto consider = [&](Clock::time_point d) {
      if (!next.has_value() || d < *next) next = d;
    };
    bool refill = false;

    for (auto& s : slots_) {
      if (s.dead) continue;
      if (s.awaiting) {
        if (t >= s.awaiting_deadline) {
          finalize_death(s, Departure::kUnexpected);
        } else {
          consider(s.awaiting_deadline);
        }
        continue;
      }
      if (!connected(s)) continue;

      if (hb_ > 0) {
        auto next_ping = s.last_ping_ + secs(hb_);
        if (t >= next_ping) {
          Message ping;
          ping.type = MessageType::kPing;
          ping.index = ping_seq_++;
          s.last_ping_ = t;
          ++report_.pings_sent;
          if (!s.chan->write_line(format_message(ping))) {
            on_disconnect(s);
            continue;
          }
          next_ping = t + secs(hb_);
        }
        consider(next_ping);
        if (s.leases.empty()) {
          // Idle liveness: a worker with nothing to compute answers PINGs
          // from its blocking read; 4 periods of silence is a half-open
          // wire. Busy workers are governed by the lease timeout instead.
          const auto deadline = s.last_heard_ + secs(4.0 * hb_);
          if (t >= deadline) {
            on_disconnect(s);
            continue;
          }
          consider(deadline);
        }
      }

      if (lt_ > 0) {
        const std::size_t expired = reclaim_leases(s, t - secs(lt_));
        if (expired > 0) {
          report_.leases_expired += expired;
          // Stalled-but-connected: reclaimed, suspended from new grants,
          // and on a probation clock — still silent one timeout later
          // means the worker is hopeless, not slow.
          s.suspended = true;
          s.probation_deadline = t + secs(lt_);
          refill = true;
        }
        for (const auto& [idx, sent] : s.leases) {
          (void)idx;
          consider(sent + secs(lt_));
        }
        if (s.suspended) {
          if (t >= s.probation_deadline) {
            finalize_death(s, Departure::kUnexpected);
            continue;
          }
          consider(s.probation_deadline);
        }
      }
    }

    for (auto it = pending_conns_.begin(); it != pending_conns_.end();) {
      if (t >= it->deadline) {
        it->chan->close();
        it = pending_conns_.erase(it);
      } else {
        consider(it->deadline);
        ++it;
      }
    }

    if (refill) refill_all();
    if (!next.has_value()) return -1;
    const double ms =
        std::chrono::duration<double, std::milli>(*next - t).count();
    if (ms <= 0) return 0;
    return static_cast<int>(std::min(ms + 1.0, 60000.0));
  }

  // ---- shutdown --------------------------------------------------------

  /// Orderly shutdown: STOP every connected worker, keep accepting and
  /// STOPping redialing stragglers, drain BYEs to EOF, reap everything —
  /// with a hard deadline after which survivors are SIGKILL'd.
  void shutdown_workers() {
    Message stop;
    stop.type = MessageType::kStop;
    const std::string stop_line = format_message(stop);

    for (auto& s : slots_) {
      s.awaiting = false;
      if (connected(s)) {
        (void)s.chan->write_line(stop_line);
        s.chan->shutdown_write();
      }
    }
    for (auto& pc : pending_conns_) {
      (void)pc.chan->write_line(stop_line);
      pc.chan->shutdown_write();
    }

    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      for (auto& s : slots_) {
        if (!s.proc_alive) continue;
        int st = 0;
        if (::waitpid(s.pid, &st, WNOHANG) == s.pid) reaped(s);
      }
      bool any_proc = false;
      for (const auto& s : slots_) any_proc = any_proc || s.proc_alive;
      if (!any_proc) break;

      std::vector<pollfd> fds;
      // 0 = listener, 1 = pending, 2 = slot, 3 = child exit
      std::vector<int> kinds;
      std::vector<std::size_t> refs;
      if (socket_mode_ && listener_.fd() >= 0) {
        fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
        kinds.push_back(0);
        refs.push_back(0);
      }
      for (std::size_t i = 0; i < pending_conns_.size(); ++i) {
        fds.push_back(pollfd{pending_conns_[i].chan->poll_fd(), POLLIN, 0});
        kinds.push_back(1);
        refs.push_back(i);
      }
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (connected(slots_[i])) {
          fds.push_back(pollfd{slots_[i].chan->poll_fd(), POLLIN, 0});
          kinds.push_back(2);
          refs.push_back(i);
        }
        // Once a wire hits EOF the set may hold nothing else; waking on
        // the exit itself keeps the poll from sleeping its whole timeout
        // after the last worker has gone.
        if (slots_[i].proc_alive && slots_[i].exit_fd >= 0) {
          fds.push_back(pollfd{slots_[i].exit_fd, POLLIN, 0});
          kinds.push_back(3);
          refs.push_back(i);
        }
      }
      const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
      if (rc < 0 && errno != EINTR) break;
      if (rc == 0 && obs::enabled()) {
        // Slept the whole timeout with a child still unreaped: a sweep
        // pays it after its last RESULT unless the exit itself wakes us.
        static obs::Counter& stalls = obs::registry().counter(
            "netsample_shard_shutdown_poll_timeouts_total",
            obs::Determinism::kNondeterministic);
        stalls.increment();
      }

      std::vector<std::size_t> dead_pending;
      for (std::size_t f = 0; f < fds.size(); ++f) {
        if (fds[f].revents == 0) continue;
        if (kinds[f] == 0) {
          // A straggler mid-redial: greet it with STOP so it exits.
          while (auto conn = listener_.accept_connection()) {
            (void)conn->write_line(stop_line);
            conn->shutdown_write();
            pending_conns_.push_back(PendingConn{
                std::move(conn), Clock::now() + std::chrono::seconds(2)});
          }
        } else if (kinds[f] == 1) {
          std::vector<std::string> lines;
          if (pending_conns_[refs[f]].chan->drain(&lines) ==
              ReadResult::kClosed) {
            dead_pending.push_back(refs[f]);
          }
        } else if (kinds[f] == 2) {
          Slot& s = slots_[refs[f]];
          std::vector<std::string> lines;
          if (s.chan->drain(&lines) == ReadResult::kClosed) {
            s.chan->close();
            s.chan.reset();
          }
        }  // a child exit is reaped at the top of the loop
      }
      std::sort(dead_pending.rbegin(), dead_pending.rend());
      for (const std::size_t i : dead_pending) {
        pending_conns_.erase(pending_conns_.begin() +
                             static_cast<std::ptrdiff_t>(i));
      }
    }

    for (auto& s : slots_) {
      if (s.proc_alive) {
        ::kill(s.pid, SIGKILL);
        int st = 0;
        ::waitpid(s.pid, &st, 0);
        reaped(s);
      }
      if (s.chan) {
        s.chan->close();
        s.chan.reset();
      }
    }
    for (auto& pc : pending_conns_) pc.chan->close();
    pending_conns_.clear();
    listener_.close();
  }

  // ---- members ---------------------------------------------------------

  const SweepSpec& spec_;
  const CoordinatorOptions& opts_;
  const bool socket_mode_;
  const double hb_;
  const double lt_;
  const double window_;

  std::size_t n_{0};
  std::vector<std::string> keys_;
  std::vector<CellState> state_;
  std::deque<std::uint64_t> pending_;
  std::size_t done_count_{0};
  std::size_t next_journal_{0};
  ShardReport report_;
  std::string spec_line_;
  std::string listen_addr_;
  Listener listener_;
  std::vector<Slot> slots_;
  std::vector<PendingConn> pending_conns_;
  int respawns_left_{0};
  bool first_spawn_done_{false};
  std::uint64_t results_received_{0};
  std::uint64_t ping_seq_{0};
};

StatusOr<ShardReport> Coordinator::run() {
  if (opts_.workers < 1) {
    return Status(StatusCode::kInvalidArgument,
                  "coordinator: --workers must be >= 1");
  }
  // A worker death between our poll() and our write() must surface as
  // EPIPE, not kill the coordinator.
  std::signal(SIGPIPE, SIG_IGN);

  // Opening the store here both validates it before any process is spawned
  // and provides the grid geometry (keys embed the interval length).
  StoreBackend& backend = store_backend(opts_.backend);
  auto opened = TraceStore::open(opts_.store_path, backend);
  if (!opened.has_value()) return opened.status();
  const TraceStore store = std::move(*opened);

  const std::vector<exper::GridTask> grid = build_grid(
      spec_, store.view(), store.mean_interarrival_usec(), &store.cache());
  n_ = grid.size();
  keys_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    keys_[i] = grid_journal_key(grid[i], spec_.base_seed);
  }

  report_.cells.resize(n_);
  state_.assign(n_, kPending);

  // Journal replay, exactly as ParallelRunner::run: already-committed cells
  // never reach a worker.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::vector<core::DisparityMetrics>* reps =
        opts_.journal != nullptr ? opts_.journal->find(keys_[i]) : nullptr;
    if (reps != nullptr) {
      report_.cells[i].status = Status::ok();
      report_.cells[i].replications = *reps;
      report_.cells[i].from_journal = true;
      state_[i] = kDone;
      ++done_count_;
    } else {
      pending_.push_back(i);
    }
  }

  if (obs::enabled()) {
    auto& reg = obs::registry();
    static obs::Counter& cells_total =
        reg.counter("netsample_shard_cells_total");
    static obs::Counter& replayed =
        reg.counter("netsample_shard_cells_from_journal_total");
    cells_total.add(n_);
    replayed.add(done_count_);
  }

  advance_journal();
  if (done_count_ == n_) return std::move(report_);  // served from journal

  Message spec_msg;
  spec_msg.type = MessageType::kSpec;
  spec_msg.text = encode_sweep_spec(spec_);
  spec_line_ = format_message(spec_msg);

  if (socket_mode_) {
    auto listener = Listener::open(opts_.listen);
    if (!listener.has_value()) return listener.status();
    listener_ = std::move(*listener);
    listen_addr_ = listener_.address();
  }

  slots_.resize(static_cast<std::size_t>(opts_.workers));
  respawns_left_ = opts_.max_respawns;
  for (std::size_t si = 0; si < slots_.size(); ++si) {
    if (!spawn_into(si)) {
      return Status(StatusCode::kInternal,
                    std::string("coordinator: cannot spawn worker: ") +
                        std::strerror(errno));
    }
  }
  refill_all();

  // Event loop: results, failures, deaths, reconnects, timers.
  while (done_count_ < n_) {
    reap_children();
    int timeout_ms = fire_timers();
    const std::uint64_t granted_before = report_.leases_granted;

    // If pending work has nowhere to run, respawn or give up.
    while (!pending_.empty() &&
           capacity() < static_cast<std::size_t>(opts_.workers) &&
           respawns_left_ > 0) {
      --respawns_left_;
      bool spawned = false;
      for (std::size_t si = 0;
           si < std::min(slots_.size(),
                         static_cast<std::size_t>(opts_.workers));
           ++si) {
        if (slots_[si].dead) {
          spawned = spawn_into(si);
          break;
        }
      }
      if (!spawned) break;
      refill_all();
    }
    // Peers held back by a die/depart drill take the reclaimed and pending
    // cells once the scripted worker has left, whether or not a respawn
    // ran; with nothing to grant this does nothing.
    refill_all();
    // Leases granted since fire_timers() carry expiry deadlines that its
    // timeout does not cover; go round once more to time them.
    if (lt_ > 0 && report_.leases_granted != granted_before) timeout_ms = 0;
    if (capacity() == 0 && pending_conns_.empty() && done_count_ < n_) {
      // No workers and no way to make more: quarantine what's left.
      for (std::size_t i = 0; i < n_; ++i) {
        if (state_[i] != kDone) {
          report_.cells[i].status =
              Status(StatusCode::kInternal,
                     "coordinator: no live workers (respawn budget spent)");
          state_[i] = kDone;
          ++done_count_;
        }
      }
      break;
    }
    if (done_count_ == n_) break;

    std::vector<pollfd> fds;
    // 0 = listener, 1 = pending conn, 2 = slot, 3 = child exit
    std::vector<int> kinds;
    std::vector<std::size_t> refs;
    if (socket_mode_ && listener_.fd() >= 0) {
      fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
      kinds.push_back(0);
      refs.push_back(0);
    }
    for (std::size_t i = 0; i < pending_conns_.size(); ++i) {
      fds.push_back(pollfd{pending_conns_[i].chan->poll_fd(), POLLIN, 0});
      kinds.push_back(1);
      refs.push_back(i);
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (connected(slots_[i])) {
        fds.push_back(pollfd{slots_[i].chan->poll_fd(), POLLIN, 0});
        kinds.push_back(2);
        refs.push_back(i);
      }
      // A socket worker's death leaves no EOF to wake on while its slot
      // awaits a reconnect; its exit is reaped at the top of the loop.
      if (slots_[i].proc_alive && slots_[i].exit_fd >= 0) {
        fds.push_back(pollfd{slots_[i].exit_fd, POLLIN, 0});
        kinds.push_back(3);
        refs.push_back(i);
      }
    }
    if (fds.empty() && timeout_ms < 0) continue;  // state changed above

    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status(StatusCode::kInternal,
                    std::string("coordinator: poll: ") + std::strerror(errno));
    }

    std::vector<std::size_t> closed_pending;
    for (std::size_t f = 0; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      if (kinds[f] == 0) {
        while (auto conn = listener_.accept_connection()) {
          pending_conns_.push_back(
              PendingConn{std::move(conn), Clock::now() + window_dur()});
        }
        continue;
      }
      if (kinds[f] == 1) {
        PendingConn& pc = pending_conns_[refs[f]];
        std::vector<std::string> lines;
        const ReadResult r = pc.chan->drain(&lines);
        if (!lines.empty()) {
          bind_pending(std::move(pc.chan), std::move(lines));
          closed_pending.push_back(refs[f]);
        } else if (r == ReadResult::kClosed) {
          pc.chan->close();
          closed_pending.push_back(refs[f]);
        }
        continue;
      }
      if (kinds[f] == 3) continue;  // reaped at the top of the loop
      Slot& s = slots_[refs[f]];
      if (!connected(s)) continue;
      std::vector<std::string> lines;
      const ReadResult r = s.chan->drain(&lines);
      handle_slot_lines(s, lines);
      if (r == ReadResult::kClosed && !s.dead) on_disconnect(s);
    }
    std::sort(closed_pending.rbegin(), closed_pending.rend());
    for (const std::size_t i : closed_pending) {
      pending_conns_.erase(pending_conns_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    }
  }

  shutdown_workers();

  if (obs::enabled()) {
    auto& reg = obs::registry();
    using obs::Determinism;
    static obs::Counter& leases = reg.counter(
        "netsample_shard_leases_total", Determinism::kNondeterministic);
    static obs::Counter& reassigned = reg.counter(
        "netsample_shard_reassignments_total", Determinism::kNondeterministic);
    static obs::Counter& spawned = reg.counter(
        "netsample_shard_workers_spawned_total",
        Determinism::kNondeterministic);
    static obs::Counter& died = reg.counter(
        "netsample_shard_workers_died_total", Determinism::kNondeterministic);
    static obs::Counter& departed = reg.counter(
        "netsample_shard_workers_departed_total",
        Determinism::kNondeterministic);
    static obs::Counter& expired = reg.counter(
        "netsample_shard_leases_expired_total",
        Determinism::kNondeterministic);
    static obs::Counter& reconnects = reg.counter(
        "netsample_shard_reconnects_total", Determinism::kNondeterministic);
    static obs::Counter& pings = reg.counter(
        "netsample_shard_pings_total", Determinism::kNondeterministic);
    static obs::Gauge& builds = reg.gauge(
        "netsample_shard_worker_cache_builds", Determinism::kNondeterministic);
    leases.add(report_.leases_granted);
    reassigned.add(report_.reassignments);
    spawned.add(report_.workers_spawned);
    died.add(report_.workers_died);
    departed.add(report_.workers_departed);
    expired.add(report_.leases_expired);
    reconnects.add(report_.reconnects);
    pings.add(report_.pings_sent);
    builds.set(static_cast<double>(report_.worker_cache_builds));
  }
  return std::move(report_);
}

}  // namespace

StatusOr<ShardReport> run_sharded_sweep(const SweepSpec& spec,
                                        const CoordinatorOptions& opts) {
  Coordinator coordinator(spec, opts);
  return coordinator.run();
}

}  // namespace netsample::shard
