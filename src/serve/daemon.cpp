#include "serve/serve.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "netsample/result.h"
#include "netsample/session.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "shard/transport.h"
#include "stream/engine.h"
#include "stream/ring.h"
#include "trace/packet_record.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace netsample::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// What the budgets charge for `packets`: their decoded size.
std::int64_t chunk_bytes(std::size_t packets) {
  return static_cast<std::int64_t>(packets * sizeof(trace::PacketRecord));
}

/// How long a connection may wait on a lane before the sessions it waits
/// on are shed ring-full: a FEED held behind its session's full ring with
/// no pop, or a read-ahead that no lane has lowered.
constexpr auto kRingFullWait = std::chrono::seconds(5);

/// Unscored FEED bytes a connection may hold before it is read no more:
/// the framer's read window.
constexpr auto kReadAhead = static_cast<std::int64_t>(shard::kReadWindow);

/// Session::unscored once a ring-full shed took its bytes off the
/// connection's count: far enough below zero that no later release brings
/// it back.
constexpr std::int64_t kWrittenOff =
    std::numeric_limits<std::int64_t>::min() / 2;

/// The packets a well-formed FEED payload carries: separators plus one.
/// The budgets count with it before any parse.
std::size_t feed_packets(std::string_view payload) {
  return static_cast<std::size_t>(
             std::count(payload.begin(), payload.end(), ' ')) +
         1;
}

/// One FEED line as framed, queued for the session's lane to parse.
struct FeedLine {
  std::string line;
  std::size_t payload_at{0};
  std::size_t packets{0};  // feed_packets(), what the budgets charged

  [[nodiscard]] std::string_view payload() const {
    return std::string_view(line).substr(payload_at);
  }
};

/// Session ids key the per-connection maps, looked up by a view into the
/// framed line.
struct IdHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view id) const noexcept {
    return std::hash<std::string_view>{}(id);
  }
};

/// The protocol thread's doorbell: an eventfd in its poll set that lanes
/// ring when they release what a paused connection waits for, or finish
/// a session.
class Doorbell {
 public:
  Doorbell() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (fd_ < 0) {
      throw std::system_error(errno, std::generic_category(), "eventfd");
    }
  }
  ~Doorbell() { ::close(fd_); }
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  void ring() const {
    const std::uint64_t one = 1;
    (void)!::write(fd_, &one, sizeof one);
  }
  void reset() const {
    std::uint64_t count = 0;
    (void)!::read(fd_, &count, sizeof count);
  }

 private:
  int fd_;
};

}  // namespace

/// Per-tenant accounting. active_sessions and the pps bucket belong to the
/// protocol thread; queued_bytes is shared with the scoring lanes.
struct TenantState {
  TenantBudget budget;
  std::size_t active_sessions{0};
  std::atomic<std::int64_t> queued_bytes{0};
  double tokens{0};
  bool bucket_primed{false};
  std::chrono::steady_clock::time_point last_refill{};
};

struct ClientState {
  std::unique_ptr<shard::Transport> transport;
  /// Serializes every line written to this transport — the protocol thread
  /// and any scoring lane emitting ROWS interleave whole lines, never bytes.
  std::mutex write_mu;
  /// Live sessions keyed by id. Protocol thread only.
  std::unordered_map<std::string, std::shared_ptr<struct Session>, IdHash,
                     std::equal_to<>>
      sessions;
  /// Ids that reached a terminal state (CLOSED / SHED / REJECT): late FEEDs
  /// and CLOSEs for them are dropped instead of ERROR'd. Protocol thread.
  std::unordered_set<std::string, IdHash, std::equal_to<>> tombstones;
  bool closed{false};

  // Flow control; protocol thread unless atomic.
  /// Framed lines not yet handled, from `next` on. Handling stops at a
  /// FEED held behind its session's full ring, and the connection is not
  /// read again until every line is handled.
  std::vector<std::string> lines;
  std::size_t next{0};
  /// The FEED at lines[next] once its budgets are charged: when, and what
  /// to refund if it is dropped before it reaches the ring.
  struct Admitted {
    Clock::time_point since;
    TenantState* tenant;
    std::size_t packets;
  };
  std::optional<Admitted> admitted;
  bool read_done{false};  // the transport's reads are over
  bool too_long{false};   // ... on a line over kMaxLineBytes
  bool paused{false};     // not polled for reads last time round
  /// FEED bytes from this connection routed to rings and not yet scored:
  /// the sum of its sessions' Session::unscored.
  std::atomic<std::int64_t> unscored{0};
  /// Published while the connection is paused for holding more than
  /// kReadAhead unscored bytes; the lane that brings it back within the
  /// window clears it and rings the doorbell.
  std::atomic<bool> read_paused{false};
  /// While paused on the read-ahead: the unscored total when it last
  /// fell (-1: not paused on it), and since when.
  std::int64_t stalled_at{-1};
  Clock::time_point stalled_since{};

  void send(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    (void)transport->write_line(line);  // false is sticky; sweep cleans up
  }
};

/// One scoring session. The protocol thread produces (FEED -> ring); at
/// most one pool task at a time consumes (the `scheduled` claim flag), so
/// the engine is effectively single-threaded and rows stay ordered.
struct Session {
  std::string id;
  SessionSpec spec;
  std::shared_ptr<ClientState> client;
  TenantState* tenant;
  util::CancelToken cancel;
  stream::SpscRing<FeedLine> ring;
  stream::Engine engine;

  MicroTime last_ts{};  // FEED clamp state; the lane holding the claim

  /// This session's share of ClientState::unscored: added when a line is
  /// pushed, given back when the lane is done with it, kWrittenOff once a
  /// ring-full shed stopped counting it.
  std::atomic<std::int64_t> unscored{0};

  /// Exclusive drain claim: whoever flips false->true owns the session's
  /// engine until it stores false (or the session terminates).
  std::atomic<bool> scheduled{false};
  std::atomic<bool> close_requested{false};
  /// Published while a FEED for this session is held behind its full
  /// ring; the lane that pops clears it and rings the doorbell.
  std::atomic<bool> push_waiting{false};
  /// Terminal-shed claim: the first CAS from null wins and owns the
  /// transition; the value is always a string literal.
  std::atomic<const char*> shed_reason{nullptr};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> rows{0};

  Session(std::string sid, SessionSpec sp, std::shared_ptr<ClientState> c,
          TenantState* t)
      : id(std::move(sid)),
        spec(std::move(sp)),
        client(std::move(c)),
        tenant(t),
        ring(spec.ring_capacity),
        engine(session_lanes(spec), session_engine_options(spec, &cancel)) {
    if (spec.deadline_s > 0) cancel.set_deadline_after(spec.deadline_s);
  }

  [[nodiscard]] bool shed_claimed() const {
    return shed_reason.load(std::memory_order_acquire) != nullptr;
  }
  [[nodiscard]] bool claim_shed(const char* reason) {
    const char* expected = nullptr;
    return shed_reason.compare_exchange_strong(expected, reason,
                                               std::memory_order_acq_rel);
  }
};

struct Server::Impl {
  ServeOptions options;
  shard::Listener listener;
  bool has_listener{false};
  bool started{false};
  bool draining{false};
  std::atomic<bool> stop_flag{false};

  std::vector<std::shared_ptr<ClientState>> clients;
  std::map<std::string, std::unique_ptr<TenantState>> tenants;

  std::atomic<std::uint64_t> opened{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> closed_count{0};
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::size_t> active_sessions{0};
  std::atomic<std::size_t> client_count{0};

  // OPEN admission is determined by client behavior alone; shed/close/row
  // tallies depend on scheduling and load, hence the nondeterministic tag.
  obs::Counter& c_opened = obs::registry().counter(
      "netsample_serve_sessions_opened_total", obs::Determinism::kDeterministic);
  obs::Counter& c_rejected = obs::registry().counter(
      "netsample_serve_sessions_rejected_total",
      obs::Determinism::kDeterministic);
  obs::Counter& c_shed = obs::registry().counter(
      "netsample_serve_sessions_shed_total",
      obs::Determinism::kNondeterministic);
  obs::Counter& c_closed = obs::registry().counter(
      "netsample_serve_sessions_closed_total",
      obs::Determinism::kNondeterministic);
  obs::Counter& c_packets = obs::registry().counter(
      "netsample_serve_packets_total", obs::Determinism::kNondeterministic);
  obs::Counter& c_rows = obs::registry().counter(
      "netsample_serve_rows_total", obs::Determinism::kNondeterministic);
  obs::Counter& c_read_pauses = obs::registry().counter(
      "netsample_serve_read_pauses_total",
      obs::Determinism::kNondeterministic);

  Doorbell doorbell;
  // Declared last so it is destroyed first: queued drain tasks reference
  // the members above and must finish before they go away.
  std::unique_ptr<util::ThreadPool> pool;

  explicit Impl(ServeOptions opts) : options(std::move(opts)) {
    pool = std::make_unique<util::ThreadPool>(options.lanes);
  }

  TenantState& tenant_for(const std::string& name) {
    auto it = tenants.find(name);
    if (it == tenants.end()) {
      auto state = std::make_unique<TenantState>();
      const auto budget_it = options.tenant_budgets.find(name);
      state->budget = budget_it != options.tenant_budgets.end()
                          ? budget_it->second
                          : options.default_budget;
      it = tenants.emplace(name, std::move(state)).first;
    }
    return *it->second;
  }

  // ---- flow control, both sides ------------------------------------------
  //
  // The protocol thread stops reading a connection while it waits for a
  // lane: for ring space (Session::push_waiting) or for the connection's
  // read-ahead to fall back within kReadAhead (ClientState::read_paused).
  // It publishes the flag, then looks again; a lane releases first, then
  // checks the flag. Both sides fence in between, so either the protocol
  // thread's second look sees the release or the lane sees the flag and
  // rings the doorbell: no wake-up is lost and nobody sleeps. Neither wait
  // outlasts kRingFullWait without progress: then the sessions waited on
  // are shed ring-full, and the connection is read again.

  void notify(std::atomic<bool>& waiting) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiting.load() && waiting.exchange(false)) doorbell.ring();
  }

  /// A lane is done with `bytes` of `s`'s FEED text. Bytes a ring-full
  /// shed wrote off are already off the connection's count.
  void release_bytes(Session& s, std::int64_t bytes) {
    if (s.unscored.fetch_sub(bytes) < 0) return;
    ClientState& client = *s.client;
    if (client.unscored.fetch_sub(bytes) - bytes <= kReadAhead) {
      notify(client.read_paused);
    }
  }

  /// Stop counting `s`'s unscored bytes against its connection (protocol
  /// thread, with the session shed): exactly the bytes no lane has given
  /// back yet come off, whichever side gets there first.
  static void write_off(Session& s) {
    const std::int64_t owed = s.unscored.exchange(kWrittenOff);
    if (owed > 0) s.client->unscored.fetch_sub(owed);
  }

  /// Drop every FEED line still queued for `s`, unscored (terminal shed,
  /// retired session).
  void discard_queued(Session& s) {
    while (s.ring.size() > 0) {
      auto feed = s.ring.pop();
      if (!feed) break;
      s.tenant->queued_bytes.fetch_sub(chunk_bytes(feed->packets),
                                       std::memory_order_relaxed);
      release_bytes(s, static_cast<std::int64_t>(feed->line.size()));
    }
  }

  // ---- scoring-lane side -------------------------------------------------

  void emit_rows(Session& s, const stream::WindowScore& score) {
    const auto& columns = session_row_columns();
    const auto cells = session_row_cells(score);
    std::lock_guard<std::mutex> lock(s.client->write_mu);
    for (const auto& row : cells) {
      (void)s.client->transport->write_line("ROWS " + s.id + " " +
                                            json_line(columns, row));
      s.rows.fetch_add(1, std::memory_order_relaxed);
      rows.fetch_add(1, std::memory_order_relaxed);
      c_rows.increment();
    }
  }

  /// The session reached its terminal line: the protocol thread retires
  /// it, and drops a FEED still held for it.
  void finish(Session& s) {
    s.done.store(true, std::memory_order_release);
    doorbell.ring();
  }

  /// Terminal shed: discard whatever is still queued, tell the client,
  /// mark done. Runs on a pool lane holding the drain claim.
  void shed_terminal(Session& s) {
    discard_queued(s);
    const char* reason = s.shed_reason.load(std::memory_order_acquire);
    s.client->send(std::string("SHED ") + s.id + " " +
                   (reason != nullptr ? reason : "internal"));
    shed.fetch_add(1, std::memory_order_relaxed);
    c_shed.increment();
    finish(s);
  }

  /// Clean finish: final score, final ROWS, CLOSED. Pool lane, claimed.
  void finalize(Session& s) {
    try {
      emit_rows(s, s.engine.finish());
    } catch (const std::exception&) {
      (void)s.claim_shed("internal");
      shed_terminal(s);
      return;
    }
    s.client->send("CLOSED " + s.id + " rows=" +
                   std::to_string(s.rows.load(std::memory_order_relaxed)) +
                   " packets=" +
                   std::to_string(s.packets.load(std::memory_order_relaxed)));
    closed_count.fetch_add(1, std::memory_order_relaxed);
    c_closed.increment();
    finish(s);
  }

  /// Gives a popped FEED line's bytes back to its connection's read-ahead
  /// when the lane is done with it, scored or not.
  struct Unscored {
    Impl& impl;
    Session& session;
    std::int64_t bytes;
    ~Unscored() { impl.release_bytes(session, bytes); }
  };

  /// The drain task: pop FEED lines, parse each into the lane's buffer,
  /// feed the engine, handle terminal transitions, release the claim only
  /// when there is truly nothing to do.
  void drain_session(const std::shared_ptr<Session>& s) {
    // The lane's parse buffer: reused, so a FEED allocates nothing once
    // the buffer has grown to the largest FEED seen.
    thread_local FeedChunk chunk;
    for (;;) {
      if (s->shed_claimed()) {
        shed_terminal(*s);
        return;
      }
      try {
        while (s->ring.size() > 0) {
          auto feed = s->ring.pop();
          if (!feed) break;
          s->tenant->queued_bytes.fetch_sub(chunk_bytes(feed->packets),
                                            std::memory_order_relaxed);
          notify(s->push_waiting);  // room for a FEED held behind it
          const Unscored unscored{
              *this, *s, static_cast<std::int64_t>(feed->line.size())};
          if (s->cancel.deadline_exceeded()) {
            (void)s->claim_shed("deadline");
            shed_terminal(*s);
            return;
          }
          // The FEEDs queued ahead of a malformed one are already scored.
          if (!parse_feed_payload(feed->payload(), &s->last_ts, &chunk)) {
            (void)s->claim_shed("input-error");
            shed_terminal(*s);
            return;
          }
          s->engine.feed(chunk.packets);
          if (s->shed_claimed()) {
            shed_terminal(*s);
            return;
          }
        }
      } catch (const StatusError& e) {
        (void)s->claim_shed(e.status().code() == StatusCode::kDeadlineExceeded
                                ? "deadline"
                                : "cancelled");
        shed_terminal(*s);
        return;
      } catch (const std::exception&) {
        (void)s->claim_shed("input-error");
        shed_terminal(*s);
        return;
      }
      if (s->close_requested.load(std::memory_order_acquire) &&
          s->ring.size() == 0) {
        finalize(*s);
        return;
      }
      // Release the claim, then re-check: the protocol thread may have
      // pushed (or requested close/shed) between our empty check and the
      // release. Whoever wins the re-claim continues.
      s->scheduled.store(false, std::memory_order_release);
      if (s->ring.size() == 0 &&
          !s->close_requested.load(std::memory_order_acquire) &&
          !s->shed_claimed()) {
        return;
      }
      if (s->scheduled.exchange(true, std::memory_order_acq_rel)) return;
    }
  }

  // ---- protocol-thread side ----------------------------------------------

  void schedule(const std::shared_ptr<Session>& s) {
    if (s->done.load(std::memory_order_acquire)) return;
    if (s->scheduled.exchange(true, std::memory_order_acq_rel)) return;
    try {
      auto future = pool->submit([this, s] { drain_session(s); });
      (void)future;
    } catch (const std::runtime_error&) {
      s->scheduled.store(false, std::memory_order_release);
    }
  }

  void request_shed(const std::shared_ptr<Session>& s, const char* reason) {
    if (s->done.load(std::memory_order_acquire)) return;
    if (!s->claim_shed(reason)) return;
    s->cancel.cancel();  // unwedge a mid-feed engine promptly
    schedule(s);
  }

  /// A lane made no progress on `s` for kRingFullWait: shed it ring-full
  /// and stop counting its queued lines against the connection, which is
  /// read again at once and drops the session's later FEEDs. The lines
  /// themselves go when the lane is free to discard them.
  void shed_ring_full(const std::shared_ptr<Session>& s) {
    request_shed(s, "ring-full");
    write_off(*s);
  }

  void reject(ClientState& client, const std::string& id,
              const std::string& reason) {
    client.send("REJECT " + id + " " + reason);
    rejected.fetch_add(1, std::memory_order_relaxed);
    c_rejected.increment();
    // Tombstone so in-flight FEED/CLOSE lines for the rejected id are
    // dropped silently. Live sessions are looked up before tombstones, so
    // a duplicate-id reject cannot shadow the session that owns the id.
    if (client.sessions.count(id) == 0) client.tombstones.insert(id);
  }

  void handle_open(const std::shared_ptr<ClientState>& client,
                   const std::string& id, const std::string& payload) {
    if (client->sessions.count(id) != 0 || client->tombstones.count(id) != 0) {
      reject(*client, id, "duplicate-id");
      return;
    }
    if (draining) {
      reject(*client, id, "draining");
      return;
    }
    SessionSpec spec;
    if (!decode_session_spec(payload, &spec)) {
      reject(*client, id, "bad-spec");
      return;
    }
    if (const Status st = validate_session_spec(spec); !st.is_ok()) {
      reject(*client, id, "invalid-spec " + st.message());
      return;
    }
    TenantState& tenant = tenant_for(spec.tenant);
    if (tenant.budget.max_sessions > 0 &&
        tenant.active_sessions >= tenant.budget.max_sessions) {
      reject(*client, id, "sessions-budget");
      return;
    }
    std::shared_ptr<Session> session;
    try {
      session = std::make_shared<Session>(id, std::move(spec), client, &tenant);
    } catch (const std::exception&) {
      reject(*client, id, "invalid-spec");
      return;
    }
    Session* raw = session.get();
    session->engine.on_snapshot(
        [this, raw](const stream::WindowScore& w) { emit_rows(*raw, w); });
    ++tenant.active_sessions;
    active_sessions.fetch_add(1, std::memory_order_relaxed);
    client->sessions.emplace(id, std::move(session));
    opened.fetch_add(1, std::memory_order_relaxed);
    c_opened.increment();
    client->send("OPENED " + id);
  }

  /// Charge the budgets for the FEED at the head of the connection's
  /// lines, once, before any parse: the count is the payload's separators
  /// plus one. False when a budget sheds the session instead.
  bool admit(ClientState& client, const std::shared_ptr<Session>& s,
             std::size_t count) {
    TenantState& tenant = *s->tenant;
    const auto now = Clock::now();
    if (tenant.budget.max_pps > 0) {
      if (!tenant.bucket_primed) {
        tenant.tokens = tenant.budget.max_pps;  // a full 1 s burst to start
        tenant.bucket_primed = true;
      } else {
        const double dt =
            std::chrono::duration<double>(now - tenant.last_refill).count();
        tenant.tokens = std::min(tenant.budget.max_pps,
                                 tenant.tokens + dt * tenant.budget.max_pps);
      }
      tenant.last_refill = now;
      if (static_cast<double>(count) > tenant.tokens) {
        request_shed(s, "pps-budget");
        return false;
      }
      tenant.tokens -= static_cast<double>(count);
    }
    const std::int64_t bytes = chunk_bytes(count);
    if (tenant.budget.max_ring_bytes > 0 &&
        tenant.queued_bytes.load(std::memory_order_relaxed) + bytes >
            static_cast<std::int64_t>(tenant.budget.max_ring_bytes)) {
      request_shed(s, "ring-bytes");
      return false;
    }
    tenant.queued_bytes.fetch_add(bytes, std::memory_order_relaxed);
    client.admitted = ClientState::Admitted{now, &tenant, count};
    return true;
  }

  /// An admitted FEED that never reached its ring gives its bytes back.
  void refund(ClientState& client) {
    if (!client.admitted) return;
    client.admitted->tenant->queued_bytes.fetch_sub(
        chunk_bytes(client.admitted->packets), std::memory_order_relaxed);
    client.admitted.reset();
  }

  /// Route one FEED line into its session's ring. The protocol thread
  /// never parses the payload and never copies it: the framed line moves
  /// into the ring whole. False when the ring is full: the line stays at
  /// the head of the connection's lines, held, until a pop makes room.
  bool handle_feed(const std::shared_ptr<ClientState>& client,
                   std::string_view id, std::string& line,
                   std::size_t payload_at) {
    ClientState& c = *client;
    const auto it = c.sessions.find(id);
    if (it == c.sessions.end()) {
      refund(c);
      if (c.tombstones.count(id) == 0) {
        c.send("ERROR FEED unknown session " + std::string(id));
      }
      return true;  // tombstoned: late FEED to a finished/rejected session
    }
    const std::shared_ptr<Session>& s = it->second;
    if (s->done.load(std::memory_order_acquire) || s->shed_claimed()) {
      refund(c);
      return true;
    }
    if (s->close_requested.load(std::memory_order_acquire)) {
      refund(c);
      c.send("ERROR FEED after CLOSE " + std::string(id));
      return true;
    }
    const std::string_view payload = std::string_view(line).substr(payload_at);
    if (!c.admitted && !admit(c, s, feed_packets(payload))) return true;
    // A full ring with no budget breach is backpressure, not loss: hold
    // the FEED and read nothing more from this connection until the lane
    // pops. Only a ring with no pop for kRingFullWait is shed ring-full —
    // which, like every shed, never touches another session's packets.
    if (s->ring.size() >= s->spec.ring_capacity) {
      if (Clock::now() - c.admitted->since >= kRingFullWait) {
        refund(c);
        shed_ring_full(s);
        return true;
      }
      s->push_waiting.store(true);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (s->ring.size() >= s->spec.ring_capacity) return false;
      s->push_waiting.store(false);
    }
    const std::size_t count = c.admitted->packets;
    c.admitted.reset();
    const auto bytes = static_cast<std::int64_t>(line.size());
    s->unscored.fetch_add(bytes);
    c.unscored.fetch_add(bytes);
    // The protocol thread is the ring's sole producer, so the size check
    // above guarantees room.
    (void)s->ring.try_push(FeedLine{std::move(line), payload_at, count});
    s->packets.fetch_add(count, std::memory_order_relaxed);
    packets.fetch_add(count, std::memory_order_relaxed);
    c_packets.add(count);
    schedule(s);
    return true;
  }

  void handle_close(const std::shared_ptr<ClientState>& client,
                    std::string_view id) {
    const auto it = client->sessions.find(id);
    if (it == client->sessions.end()) {
      if (client->tombstones.count(id) == 0) {
        client->send("ERROR CLOSE unknown session " + std::string(id));
      }
      return;  // tombstoned: the session already reached a terminal state
    }
    const std::shared_ptr<Session>& s = it->second;
    if (s->done.load(std::memory_order_acquire) || s->shed_claimed()) return;
    if (s->close_requested.exchange(true, std::memory_order_acq_rel)) return;
    schedule(s);
  }

  void handle_stats(ClientState& client) {
    client.send(
        "STATS active=" + std::to_string(active_sessions.load()) +
        " opened=" + std::to_string(opened.load()) +
        " rejected=" + std::to_string(rejected.load()) +
        " shed=" + std::to_string(shed.load()) +
        " closed=" + std::to_string(closed_count.load()) +
        " packets=" + std::to_string(packets.load()) +
        " rows=" + std::to_string(rows.load()));
  }

  void drop_client(const std::shared_ptr<ClientState>& client) {
    if (client->closed) return;
    client->closed = true;
    refund(*client);
    client->lines.clear();
    client->next = 0;
    for (auto& [id, s] : client->sessions) request_shed(s, "disconnect");
    std::lock_guard<std::mutex> lock(client->write_mu);
    client->transport->close();
  }

  /// Handle one framed line; false when it is a FEED held for ring space.
  bool handle_line(const std::shared_ptr<ClientState>& client,
                   std::string& line) {
    detail::ClientLine msg;
    std::string error;
    if (!detail::split_client_line(line, &msg, &error)) {
      client->send("ERROR " + error);
      return true;
    }
    switch (msg.command) {
      case ClientCommand::kOpen:
        handle_open(client, std::string(msg.session_id),
                    std::string(msg.payload));
        break;
      case ClientCommand::kFeed:  // msg's views point into `line`
        return handle_feed(client, msg.session_id, line,
                           line.size() - msg.payload.size());
      case ClientCommand::kClose:
        handle_close(client, msg.session_id);
        break;
      case ClientCommand::kStats:
        handle_stats(*client);
        break;
      case ClientCommand::kBye:
        drop_client(client);
        break;
    }
    return true;
  }

  /// True while more than kReadAhead of the connection's FEED bytes are
  /// unscored. Publishes read_paused before the second look, so the lane
  /// that brings the count back within the window rings the doorbell. A
  /// count that no lane has lowered for kRingFullWait is written off with
  /// the sessions holding it, shed ring-full.
  bool over_read_ahead(ClientState& c) {
    const auto within = [&c] {
      if (c.unscored.load() > kReadAhead) return false;
      c.stalled_at = -1;
      return true;
    };
    if (within()) return false;
    c.read_paused.store(true);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (within()) return false;
    // Nothing is pushed while the connection is paused here, so the count
    // only falls, and a count that has not fallen means no lane released.
    const auto now = Clock::now();
    if (c.stalled_at >= 0 && c.unscored.load() >= c.stalled_at &&
        now - c.stalled_since >= kRingFullWait) {
      for (auto& [id, s] : c.sessions) {
        if (s->unscored.load() > 0) shed_ring_full(s);
      }
      if (within()) return false;
      c.stalled_at = -1;  // what is left is in flight on a lane
    }
    const std::int64_t unscored = c.unscored.load();
    if (c.stalled_at < 0 || unscored < c.stalled_at) {
      c.stalled_at = unscored;  // paused anew, or a lane made progress
      c.stalled_since = now;
    }
    return true;
  }

  /// Handle the connection's framed lines in order until one is held.
  /// True when the connection may be read again: every framed line is
  /// handled and no more than kReadAhead of its FEED bytes are unscored.
  /// A connection whose reads ended is dropped once its lines are
  /// handled.
  bool ready_to_read(const std::shared_ptr<ClientState>& client) {
    ClientState& c = *client;
    while (!c.closed && c.next < c.lines.size()) {
      if (!handle_line(client, c.lines[c.next])) break;
      ++c.next;
    }
    if (c.closed) return false;
    const bool held = c.next < c.lines.size();
    if (!held && c.read_done) {
      if (c.too_long) c.send("ERROR line too long");
      drop_client(client);
      return false;
    }
    if (!held && !over_read_ahead(c)) {
      c.read_paused.store(false);
      c.paused = false;
      return true;
    }
    if (!c.paused) c_read_pauses.increment();
    c.paused = true;
    return false;
  }

  /// One read from a connection the poll found readable, and its lines
  /// handled at once (a connection whose reads ended is dropped here).
  void read_from(const std::shared_ptr<ClientState>& client) {
    client->lines.clear();
    client->next = 0;
    const shard::ReadResult read = client->transport->drain(&client->lines);
    client->too_long = read == shard::ReadResult::kTooLong;
    client->read_done = client->too_long || read == shard::ReadResult::kClosed;
    (void)ready_to_read(client);
  }

  void add_client(std::unique_ptr<shard::Transport> transport) {
    auto client = std::make_shared<ClientState>();
    client->transport = std::move(transport);
    clients.push_back(std::move(client));
    client_count.store(clients.size(), std::memory_order_relaxed);
  }

  /// Retire finished sessions (protocol thread): reclaim any residual ring
  /// bytes a racing FEED queued after the terminal drain, release the
  /// tenant slot, tombstone the id. Then drop fully-departed clients.
  void sweep() {
    for (auto& client : clients) {
      for (auto it = client->sessions.begin(); it != client->sessions.end();) {
        Session& s = *it->second;
        if (!s.done.load(std::memory_order_acquire)) {
          ++it;
          continue;
        }
        discard_queued(s);
        --s.tenant->active_sessions;
        active_sessions.fetch_sub(1, std::memory_order_relaxed);
        client->tombstones.insert(it->first);
        it = client->sessions.erase(it);
      }
    }
    std::erase_if(clients, [](const std::shared_ptr<ClientState>& c) {
      return c->closed && c->sessions.empty();
    });
    client_count.store(clients.size(), std::memory_order_relaxed);
  }

  void begin_drain() {
    draining = true;
    if (has_listener) listener.close();
    for (auto& client : clients) {
      for (auto& [id, s] : client->sessions) {
        if (s->done.load(std::memory_order_acquire) || s->shed_claimed()) {
          continue;
        }
        if (!s->close_requested.exchange(true, std::memory_order_acq_rel)) {
          schedule(s);
        }
      }
    }
  }

  /// The protocol thread: frame, route, enforce budgets. It never parses
  /// a FEED payload and never sleeps: a connection that must wait for a
  /// lane is left out of the poll set, and the lane rings the doorbell.
  void run() {
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<ClientState>> polled;
    for (;;) {
      const bool stop_now =
          stop_flag.load(std::memory_order_relaxed) ||
          (options.stop_check && options.stop_check());
      if (stop_now && !draining) begin_drain();
      sweep();
      if (draining) {
        bool busy = false;
        for (const auto& c : clients) busy = busy || !c->sessions.empty();
        if (!busy) return;
      } else if (!has_listener && clients.empty()) {
        return;  // adopted-transport mode: last client departed
      }

      fds.clear();
      polled.clear();
      fds.push_back({doorbell.fd(), POLLIN, 0});
      const bool listening = has_listener && !draining;
      if (listening) fds.push_back({listener.fd(), POLLIN, 0});
      for (const auto& client : clients) {
        if (!ready_to_read(client)) continue;
        fds.push_back({client->transport->poll_fd(), POLLIN, 0});
        polled.push_back(client);
      }
      const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);
      if (ready <= 0) continue;  // timeout or EINTR: loop re-checks stop

      if ((fds[0].revents & POLLIN) != 0) doorbell.reset();
      std::size_t fd_index = 1;
      if (listening) {
        if ((fds[1].revents & POLLIN) != 0) {
          while (auto transport = listener.accept_connection(kMaxLineBytes)) {
            add_client(std::move(transport));
          }
        }
        fd_index = 2;
      }
      for (std::size_t i = 0; i < polled.size(); ++i, ++fd_index) {
        if ((fds[fd_index].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          read_from(polled[i]);
        }
      }
    }
  }
};

Server::Server(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() = default;

void Server::start() {
  if (impl_->started) return;
  impl_->started = true;
  if (impl_->options.listen.empty()) return;
  auto listener = shard::Listener::open(impl_->options.listen);
  if (!listener.has_value()) throw StatusError(listener.status());
  impl_->listener = std::move(listener).value();
  impl_->has_listener = true;
}

std::string Server::address() const {
  return impl_->has_listener ? impl_->listener.address() : std::string();
}

void Server::adopt_client(std::unique_ptr<shard::Transport> transport) {
  impl_->add_client(std::move(transport));
}

void Server::run() {
  if (!impl_->started) start();
  impl_->run();
}

void Server::request_stop() {
  impl_->stop_flag.store(true, std::memory_order_relaxed);
  impl_->doorbell.ring();
}

ServeStats Server::stats() const {
  ServeStats out;
  out.sessions_opened = impl_->opened.load(std::memory_order_relaxed);
  out.sessions_rejected = impl_->rejected.load(std::memory_order_relaxed);
  out.sessions_shed = impl_->shed.load(std::memory_order_relaxed);
  out.sessions_closed = impl_->closed_count.load(std::memory_order_relaxed);
  out.packets = impl_->packets.load(std::memory_order_relaxed);
  out.rows = impl_->rows.load(std::memory_order_relaxed);
  out.active_sessions = impl_->active_sessions.load(std::memory_order_relaxed);
  out.clients = impl_->client_count.load(std::memory_order_relaxed);
  return out;
}

}  // namespace netsample::serve
