// serve_windows: a `netsample serve --lanes 2` daemon in its own process,
// driven over 2 loopback connections by a closed loop of 32 session slots.
//
// Each slot runs sessions back to back. A session replays one 100K-packet
// slice of the capture (slices used in turn) with window 30 s, stride 10 s,
// k = 50, 5 replications and both targets. Slots cycle through the five
// methods and alternate 64- and 512-packet FEED lines. A slot sends FEED
// lines until one crosses the session's next stride boundary, then waits
// for that tick's first ROWS line; at the end of its slice it sends CLOSE,
// waits for CLOSED and opens the next session. A closed loop keeps the
// daemon busy without an open loop's late-wakeup noise.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netsample/netsample.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace netsample;

constexpr std::size_t kSlicePackets = 100000;
constexpr std::size_t kMaxSlices = 16;
constexpr std::size_t kSlots = 32;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kFeedSizes[2] = {64, 512};
constexpr core::Method kMethods[5] = {
    core::Method::kSystematicCount, core::Method::kStratifiedCount,
    core::Method::kSimpleRandom, core::Method::kSystematicTimer,
    core::Method::kStratifiedTimer};
constexpr double kStrideS = 10;
// Slot i's first session replays only the first (i + 1) x kPrefixStep
// packets of a slice (a multiple of both FEED sizes), so the slots start
// out of step instead of all crossing ticks together.
constexpr std::size_t kPrefixStep = 3072;
// Ring capacity in FEED chunks: a whole stride of 64-packet FEED lines fits,
// so the daemon's protocol thread never sleeps in ring-full backpressure;
// the closed loop bounds what each session has queued instead.
constexpr std::size_t kRingChunks = 256;
constexpr int kSetups = 3;

struct Feed {
  std::string payload;
  std::uint64_t last_usec{0};
  std::size_t packets{0};
};

/// The client's inputs, prepared at set-up from the decoded capture.
struct Capture {
  trace::Trace trace;
  std::vector<std::span<const trace::PacketRecord>> slices;
  std::vector<double> mean_iat_usec;
  std::vector<Feed> feeds[2][kMaxSlices];  // [feed size][slice]
};

std::unique_ptr<Capture> prepare(const std::string& pcap) {
  auto t = pcap::read_trace(pcap);
  if (!t.has_value()) {
    throw std::runtime_error("read_trace: " + t.status().message());
  }
  auto c = std::make_unique<Capture>();
  c->trace = std::move(t).value();
  const auto all = c->trace.view().packets();
  const std::size_t slices = std::min(kMaxSlices, all.size() / kSlicePackets);
  if (slices < 4) throw std::runtime_error("capture too short for 4 slices");
  for (std::size_t s = 0; s < slices; ++s) {
    const auto slice = all.subspan(s * kSlicePackets, kSlicePackets);
    c->slices.push_back(slice);
    c->mean_iat_usec.push_back(
        static_cast<double>(slice.back().timestamp.usec -
                            slice.front().timestamp.usec) /
        static_cast<double>(slice.size() - 1));
    for (std::size_t f = 0; f < 2; ++f) {
      for (std::size_t at = 0; at < slice.size(); at += kFeedSizes[f]) {
        const auto chunk =
            slice.subspan(at, std::min(kFeedSizes[f], slice.size() - at));
        c->feeds[f][s].push_back({serve::encode_feed_payload(chunk),
                                  static_cast<std::uint64_t>(
                                      chunk.back().timestamp.usec),
                                  chunk.size()});
      }
    }
  }
  return c;
}

SessionSpec spec_for(core::Method method, std::size_t slice,
                     std::size_t packets, const Capture& cap,
                     std::uint64_t seed) {
  SessionSpec s;
  s.method = method;
  s.granularity = 50;
  s.replications = 5;
  s.seed = seed;
  s.targets = "both";
  s.window_s = 30;
  s.stride_s = kStrideS;
  s.ring_capacity = kRingChunks;
  if (method == core::Method::kSimpleRandom) {
    s.population = packets;
  }
  if (core::method_is_timer_driven(method)) {
    s.mean_iat_usec = cap.mean_iat_usec[slice];
  }
  return s;
}

/// The rows a session must produce: a direct stream::Engine replay.
struct Expected {
  std::uint64_t hash{fnv1a(nullptr, 0)};
  std::uint64_t rows{0};
  std::uint64_t windows{0};  // periodic ticks plus the final window
};

Expected replay(const SessionSpec& spec,
                std::span<const trace::PacketRecord> slice) {
  stream::Engine engine(session_lanes(spec), session_engine_options(spec));
  Expected e;
  auto emit = [&e](const stream::WindowScore& w) {
    for (const auto& row : session_row_cells(w)) {
      const std::string line = json_line(session_row_columns(), row);
      e.hash = fnv1a(line.data(), line.size(), e.hash);
      ++e.rows;
    }
    ++e.windows;
  };
  engine.on_snapshot(emit);
  engine.feed(slice);
  emit(engine.finish());
  return e;
}

/// A running daemon and the client's connections to it. The daemon is
/// stopped when the rig goes away, on error paths too.
struct Rig {
  Child daemon;
  std::vector<std::unique_ptr<shard::Transport>> conns;
  double start_s{0};  // spawn -> "listening"

  Rig() = default;
  Rig(Rig&& other) noexcept
      : daemon(std::exchange(other.daemon, Child{})),
        conns(std::move(other.conns)),
        start_s(other.start_s) {}
  Rig& operator=(Rig&& other) noexcept {
    if (this != &other) {
      (void)stop();
      daemon = std::exchange(other.daemon, Child{});
      conns = std::move(other.conns);
      start_s = other.start_s;
    }
    return *this;
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { (void)stop(); }

  /// Closes the connections and SIGTERMs the daemon; false unless it
  /// exited 0.
  bool stop() {
    for (auto& c : conns) c->close();
    conns.clear();
    return daemon.pid <= 0 || terminate_and_wait(daemon);
  }
};

Rig start_daemon(const std::string& netsample) {
  Rig rig;
  const double t0 = now_s();
  rig.daemon = spawn({netsample, "serve", "--listen", "127.0.0.1:0", "--lanes",
                      "2"},
                     /*capture_stdout=*/true);
  const std::string line = read_fd_line(rig.daemon.stdout_fd);
  rig.start_s = now_s() - t0;
  if (line.rfind("listening ", 0) != 0) {
    throw std::runtime_error("serve did not start: '" + line + "'");
  }
  const std::string address = line.substr(10);
  for (std::size_t i = 0; i < kConnections; ++i) {
    auto t = shard::dial(address);
    if (!t.has_value()) throw std::runtime_error("dial " + address + " failed");
    rig.conns.push_back(std::move(t).value());
  }
  return rig;
}

/// What the measured part of one closed-loop run saw. Times are seconds
/// since the window opened.
struct Phase {
  std::vector<std::pair<double, double>> windows;  // (FEED sent, ms)
  std::vector<std::pair<double, double>> closes;   // (CLOSED, packets)
  std::vector<double> open_ms, close_ms;
  std::uint64_t packets{0};  // packets of sessions that closed in the window
  std::uint64_t rows{0};
  std::uint64_t sessions{0};
  double seconds{0};  // length of the measured window
  double daemon_cpu_s{0}, client_cpu_s{0};
  double steal_share{0};
};

/// Statistics of each whole second of the measured window: a second in
/// which the host stalled the daemon moves their median less than it moves
/// a figure over the whole window.
struct PerSecond {
  std::vector<double> pkts_per_s, p50_ms, p90_ms, p99_ms;
  std::size_t windows{0};
};

PerSecond per_second(const Phase& ph) {
  const auto n = static_cast<std::size_t>(ph.seconds);
  PerSecond out;
  out.pkts_per_s.assign(n, 0.0);
  std::vector<std::vector<double>> lat(n);
  for (const auto& [t, ms] : ph.windows) {
    const auto k = static_cast<std::size_t>(t);
    if (k < n) lat[k].push_back(ms);
  }
  for (const auto& [t, pkts] : ph.closes) {
    const auto k = static_cast<std::size_t>(t);
    if (k < n) out.pkts_per_s[k] += pkts;
  }
  for (const auto& l : lat) {
    out.p50_ms.push_back(quantile(l, 0.5));
    out.p90_ms.push_back(quantile(l, 0.9));
    out.p99_ms.push_back(quantile(l, 0.99));
    out.windows += l.size();
  }
  return out;
}

/// One session a slot runs: a slice (or, for a slot's first session, a
/// prefix of one) and the rows it must produce.
struct SessionPlan {
  std::size_t slice{0};
  std::size_t packets{0};
  const Expected* expected{nullptr};
};

class Client {
 public:
  Client(Rig& rig, const Capture& cap, const std::vector<Expected>& full,
         const std::vector<Expected>& prefix, std::uint64_t seed,
         Report& report)
      : rig_(rig),
        cap_(cap),
        full_(full),
        prefix_(prefix),
        seed_(seed),
        r_(report) {}

  /// One continuous closed loop, starting with each slot's shortened first
  /// session (kPrefixStep). Once every slot has finished a whole slice the
  /// measured window opens; it lasts `seconds`, then no
  /// new sessions start and every open one finishes. With a ledger, each
  /// measured session and each reply it waits for is a span.
  Phase run(double seconds, Ledger* ledger) {
    phase_ = Phase{};
    ledger_ = ledger;
    seconds_ = seconds;
    measuring_ = false;
    stopping_ = false;
    warm_slots_ = 0;
    slots_.assign(kSlots, Slot{});
    for (std::size_t i = 0; i < kSlots; ++i) {
      slots_[i].conn = i % kConnections;
      slots_[i].method = i % 5;
      slots_[i].feed_size = i % 2;
      const std::size_t slice = i % cap_.slices.size();
      open_session(i, {slice, (i + 1) * kPrefixStep, &prefix_[i]});
    }
    std::vector<pollfd> fds(kConnections);
    std::vector<std::string> lines;
    double last_reply = now_s();
    while (busy_ > 0) {
      bool sending = false;
      for (const auto& s : slots_) sending |= s.state == State::kFeeding;
      for (std::size_t c = 0; c < kConnections; ++c) {
        fds[c] = {rig_.conns[c]->poll_fd(), POLLIN, 0};
      }
      if (::poll(fds.data(), fds.size(), sending ? 0 : 1000) < 0 &&
          errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      for (std::size_t c = 0; c < kConnections; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        lines.clear();
        if (rig_.conns[c]->drain(&lines) == shard::ReadResult::kClosed) {
          throw std::runtime_error("daemon closed a connection");
        }
        for (const auto& line : lines) handle(line);
        if (!lines.empty()) last_reply = now_s();
      }
      if (now_s() - last_reply > kStallSeconds) {
        throw std::runtime_error("the daemon stopped replying");
      }
      if (measuring_ && now_s() >= end_) stop_measuring();
      for (std::size_t i = 0; i < kSlots; ++i) {
        if (slots_[i].state == State::kFeeding) send_next(i);
      }
    }
    if (measuring_) stop_measuring();
    return phase_;
  }

 private:
  static constexpr double kStallSeconds = 30;

  enum class State { kIdle, kOpening, kFeeding, kWaiting, kClosing };
  struct Slot {
    std::size_t conn{0}, method{0}, feed_size{0};
    State state{State::kIdle};
    bool warm{false};  // has finished a whole slice
    SessionPlan plan;
    std::string id;
    std::size_t next_feed{0}, feeds{0};
    std::uint64_t first_usec{0}, crossed{0}, awaited{0};
    double sent_at{0};
    std::uint64_t hash{0}, rows{0};
    std::uint64_t group{0};  // the session's span group
    std::uint64_t span{0};   // the session's ledger span (0 = untraced)
  };

  [[nodiscard]] bool in_window(double t) const {
    return measuring_ && t >= start_ && t < end_;
  }

  void start_measuring() {
    measuring_ = true;
    start_ = now_s();
    end_ = start_ + seconds_;
    daemon_cpu0_ = proc_cpu_s(rig_.daemon.pid);
    client_cpu0_ = self_cpu_s();
    host0_ = host_ticks();
  }

  void stop_measuring() {
    phase_.daemon_cpu_s = proc_cpu_s(rig_.daemon.pid) - daemon_cpu0_;
    phase_.client_cpu_s = self_cpu_s() - client_cpu0_;
    phase_.seconds = now_s() - start_;
    phase_.steal_share = steal_share(host0_, host_ticks());
    measuring_ = false;
    stopping_ = true;
  }

  void send(const Slot& s, const std::string& line) {
    if (!rig_.conns[s.conn]->write_line(line)) {
      throw std::runtime_error("daemon connection lost");
    }
  }

  void open_session(std::size_t i, SessionPlan plan) {
    Slot& s = slots_[i];
    const std::uint64_t serial = serial_++;
    s.state = State::kOpening;
    s.plan = plan;
    s.id = "s" + std::to_string(i) + "-" + std::to_string(serial);
    s.next_feed = 0;
    s.feeds = (plan.packets + kFeedSizes[s.feed_size] - 1) /
              kFeedSizes[s.feed_size];
    s.first_usec = static_cast<std::uint64_t>(
        cap_.slices[plan.slice].front().timestamp.usec);
    s.crossed = s.awaited = 0;
    s.hash = fnv1a(nullptr, 0);
    s.rows = 0;
    s.group = serial + 1;
    s.sent_at = now_s();
    s.span = ledger_ != nullptr && measuring_
                 ? ledger_->begin("serve.session", s.group, 0)
                 : 0;
    ids_[s.id] = i;
    ++busy_;
    send(s, "OPEN " + s.id + " " +
                encode_session_spec(spec_for(kMethods[s.method], plan.slice,
                                             plan.packets, cap_, seed_)));
  }

  void record_span(const Slot& s, const char* name) {
    if (s.span == 0) return;
    ledger_->end(ledger_->begin(name, s.group, s.span, s.sent_at));
  }

  void finish_session(std::size_t i) {
    Slot& s = slots_[i];
    if (s.span != 0) ledger_->end(s.span);
    ids_.erase(s.id);
    s.state = State::kIdle;
    --busy_;
    if (!s.warm && s.plan.packets == kSlicePackets) {
      s.warm = true;
      if (++warm_slots_ == kSlots) start_measuring();
    }
    if (stopping_) return;
    const std::size_t slice = next_slice_++ % cap_.slices.size();
    open_session(i, {slice, kSlicePackets, &full_[slice * 5 + s.method]});
  }

  void send_next(std::size_t i) {
    Slot& s = slots_[i];
    if (s.next_feed == s.feeds) {
      s.state = State::kClosing;
      s.sent_at = now_s();
      send(s, "CLOSE " + s.id);
      return;
    }
    const Feed& f = cap_.feeds[s.feed_size][s.plan.slice][s.next_feed++];
    const auto stride = static_cast<std::uint64_t>(kStrideS * 1e6);
    const std::uint64_t ticks = (f.last_usec - s.first_usec) / stride;
    s.sent_at = now_s();
    send(s, "FEED " + s.id + " " + f.payload);
    if (ticks > s.crossed) {
      s.crossed = ticks;
      s.awaited = ticks;
      s.state = State::kWaiting;
    }
  }

  void fail_session(std::size_t i, const std::string& why) {
    r_.attempted += slots_[i].plan.expected->windows;
    r_.fail(slots_[i].plan.expected->windows, why);
    finish_session(i);
  }

  void handle(const std::string& line) {
    const auto sp1 = line.find(' ');
    const std::string verb = line.substr(0, sp1);
    if (verb == "ERROR" || sp1 == std::string::npos) {
      r_.fail(1, "daemon: " + line);
      return;
    }
    const auto sp2 = line.find(' ', sp1 + 1);
    const std::string id = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const auto it = ids_.find(id);
    if (it == ids_.end()) {
      r_.fail(1, "reply for unknown session: " + line.substr(0, 80));
      return;
    }
    const std::size_t i = it->second;
    Slot& s = slots_[i];
    const double now = now_s();
    if (verb == "OPENED") {
      if (in_window(s.sent_at)) {
        phase_.open_ms.push_back((now - s.sent_at) * 1e3);
      }
      record_span(s, "serve.open_rtt");
      s.state = State::kFeeding;
    } else if (verb == "ROWS") {
      const char* json = line.c_str() + sp2 + 1;
      s.hash = fnv1a(json, line.size() - sp2 - 1, s.hash);
      ++s.rows;
      if (in_window(now)) ++phase_.rows;
      // Rows start {"tick":N,...; the first row of the awaited tick ends
      // the wait.
      if (s.state == State::kWaiting &&
          std::strtoull(json + 8, nullptr, 10) == s.awaited) {
        if (in_window(s.sent_at)) {
          phase_.windows.emplace_back(s.sent_at - start_,
                                      (now - s.sent_at) * 1e3);
        }
        record_span(s, "serve.window");
        s.state = State::kFeeding;
      }
    } else if (verb == "CLOSED") {
      if (in_window(s.sent_at)) {
        phase_.close_ms.push_back((now - s.sent_at) * 1e3);
      }
      record_span(s, "serve.close_rtt");
      const Expected& e = *s.plan.expected;
      r_.attempted += e.windows;
      if (s.hash != e.hash || s.rows != e.rows) {
        r_.fail(e.windows, "session " + s.id + " rows differ from the replay");
      }
      if (in_window(now)) {
        phase_.closes.emplace_back(now - start_,
                                   static_cast<double>(s.plan.packets));
        phase_.packets += s.plan.packets;
        ++phase_.sessions;
      }
      finish_session(i);
    } else if (verb == "SHED" || verb == "REJECT") {
      fail_session(i, "session " + line);
    } else {
      r_.fail(1, "unexpected reply: " + line.substr(0, 80));
    }
  }

  Rig& rig_;
  const Capture& cap_;
  const std::vector<Expected>& full_;    // [slice * 5 + method]
  const std::vector<Expected>& prefix_;  // [slot]
  std::uint64_t seed_;
  Report& r_;
  std::vector<Slot> slots_;
  std::unordered_map<std::string, std::size_t> ids_;
  std::uint64_t serial_{0};
  std::size_t next_slice_{0};
  std::size_t busy_{0};
  std::size_t warm_slots_{0};
  double seconds_{0}, start_{0}, end_{0};
  double daemon_cpu0_{0}, client_cpu0_{0};
  HostTicks host0_;
  bool measuring_{false}, stopping_{false};
  Ledger* ledger_{nullptr};
  Phase phase_;
};

/// Set up kSetups times (decode, FEED lines, daemon start, connections);
/// the last set-up is kept for the timed phase. The expected rows of every
/// (slice, method) pair and of each slot's first, shortened session are
/// replayed after set-up, before anything is timed.
struct Prepared {
  std::unique_ptr<Capture> cap;
  Rig rig;
  std::vector<double> setup_s;
  std::vector<Expected> full;    // [slice * 5 + method]
  std::vector<Expected> prefix;  // [slot]
};

Prepared set_up(const RunArgs& args, Report& r) {
  Prepared p;
  for (int i = 0; i < kSetups; ++i) {
    if (p.cap) {
      if (!p.rig.stop()) r.fail(1, "serve did not exit 0 on SIGTERM");
      p.cap.reset();
    }
    const double t0 = now_s();
    p.cap = prepare(args.pcap);
    p.rig = start_daemon(args.netsample);
    p.setup_s.push_back(now_s() - t0);
  }
  const Capture& cap = *p.cap;
  for (std::size_t s = 0; s < cap.slices.size(); ++s) {
    for (const auto m : kMethods) {
      p.full.push_back(
          replay(spec_for(m, s, kSlicePackets, cap, args.seed), cap.slices[s]));
    }
  }
  for (std::size_t i = 0; i < kSlots; ++i) {
    const std::size_t slice = i % cap.slices.size();
    const std::size_t packets = (i + 1) * kPrefixStep;
    p.prefix.push_back(replay(spec_for(kMethods[i % 5], slice, packets, cap,
                                       args.seed),
                              cap.slices[slice].first(packets)));
  }
  return p;
}

}  // namespace

Report run_serve_windows(const RunArgs& args) {
  Report r;
  Prepared p = set_up(args, r);
  Client client(p.rig, *p.cap, p.full, p.prefix, args.seed, r);
  const Phase ph = client.run(args.seconds, nullptr);
  const double rss = proc_peak_rss_mb(p.rig.daemon.pid);
  if (!p.rig.stop()) r.fail(1, "serve did not exit 0 on SIGTERM");

  const PerSecond sec = per_second(ph);
  r.capture_packets = p.cap->trace.size();
  r.steal_share = ph.steal_share;
  r.add("setup_s", median(p.setup_s), "s", p.setup_s.size());
  r.add("pkts_per_s", median(sec.pkts_per_s), "pkt/s", sec.pkts_per_s.size());
  r.add("cpu_ns_per_pkt",
        ph.daemon_cpu_s * 1e9 / static_cast<double>(ph.packets), "ns",
        ph.sessions);
  r.add("peak_rss_mb", rss, "MiB", 1);
  return r;
}

Report trace_serve_windows(const RunArgs& args, const TransportProbe& wire) {
  Report r;
  Prepared p = set_up(args, r);
  r.capture_packets = p.cap->trace.size();
  const double start_ms = p.rig.start_s * 1e3;
  Client client(p.rig, *p.cap, p.full, p.prefix, args.seed, r);
  const double phase_s = std::max(2.0, args.seconds / 3);
  const Phase plain = client.run(phase_s, nullptr);
  Ledger L;
  const Phase traced = client.run(phase_s, &L);

  // The daemon's own counters, through the STATS verb.
  std::string stats;
  if (p.rig.conns[0]->write_line("STATS")) {
    while (p.rig.conns[0]->read_line(&stats) == shard::ReadResult::kLine &&
           stats.rfind("STATS ", 0) != 0) {
    }
  }
  auto counter = [&stats](const std::string& key) {
    const auto at = stats.find(" " + key + "=");
    return at == std::string::npos
               ? 0.0
               : std::strtod(stats.c_str() + at + key.size() + 2, nullptr);
  };
  const double shed = counter("shed");
  const double rejected = counter("rejected");
  if (!p.rig.stop()) r.fail(1, "serve did not exit 0 on SIGTERM");

  // In-process replay of the daemon's stages on this run's own FEED lines,
  // slices and specs: two slices, every method, both FEED sizes.
  double parsed_pkts = 0, feed_bytes = 0, chunks = 0, fed = 0, rows = 0;
  double row_bytes = 0, sessions = 0;
  std::uint64_t group = 3000000;
  for (std::size_t slice = 0; slice < 2; ++slice) {
    for (std::size_t f = 0; f < 2; ++f) {
      for (const auto method : kMethods) {
        ++group;
        const SessionSpec spec =
            spec_for(method, slice, kSlicePackets, *p.cap, args.seed);
        const std::string wire_spec = encode_session_spec(spec);
        std::unique_ptr<stream::Engine> engine;
        {
          Scope s(L, "netsample.open", group);
          SessionSpec decoded;
          if (!decode_session_spec(wire_spec, &decoded) ||
              !validate_session_spec(decoded).is_ok()) {
            r.fail(1, "session spec did not round-trip");
          }
          engine = std::make_unique<stream::Engine>(
              session_lanes(decoded), session_engine_options(decoded));
        }
        auto emit = [&](const stream::WindowScore& w) {
          Scope s(L, "netsample.row_emit", group);
          for (const auto& row : session_row_cells(w)) {
            row_bytes += static_cast<double>(
                json_line(session_row_columns(), row).size() + 1);
            ++rows;
          }
        };
        engine->on_snapshot(emit);
        stream::SpscRing<std::vector<trace::PacketRecord>> ring(kRingChunks);
        MicroTime last_ts{};
        for (const Feed& feed : p.cap->feeds[f][slice]) {
          const std::string line = "FEED s0-0 " + feed.payload;
          serve::FeedChunk chunk;
          {
            Scope s(L, "serve.feed_parse", group);
            serve::ClientMessage msg;
            std::string error;
            if (!serve::parse_client_line(line, &msg, &error) ||
                !serve::parse_feed_payload(msg.payload, &last_ts, &chunk)) {
              r.fail(1, "FEED line did not parse");
            }
          }
          parsed_pkts += static_cast<double>(chunk.packets.size());
          feed_bytes += static_cast<double>(line.size() + 1);
          std::optional<std::vector<trace::PacketRecord>> popped;
          {
            Scope s(L, "stream.ring_push", group);
            ring.push(std::move(chunk.packets));
            popped = ring.pop();
          }
          ++chunks;
          fed += static_cast<double>(popped->size());
          Scope s(L, "stream.engine_step", group);
          engine->feed(*popped);
        }
        const auto final_score = [&] {
          Scope s(L, "stream.engine_finish", group);
          return engine->finish();
        }();
        emit(final_score);
        ++sessions;
      }
    }
  }

  const auto st = L.stages();
  auto self = [&st](const char* name) { return stage(st, name).self_s; };
  auto spans = [&st](const char* name) { return stage(st, name).spans; };
  const double cpus = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  const double pkts = static_cast<double>(plain.packets);
  const double cpu_ns = plain.daemon_cpu_s * 1e9 / pkts;
  const double parse_ns = self("serve.feed_parse") * 1e9 / parsed_pkts;
  const double ring_ns = self("stream.ring_push") * 1e9 / chunks;
  const double step_ns = self("stream.engine_step") * 1e9 / fed;
  const double finish_us = self("stream.engine_finish") * 1e6 / sessions;
  const double row_ns = self("netsample.row_emit") * 1e9 / rows;
  const double open_us = self("netsample.open") * 1e6 / sessions;
  const double session_pkts = static_cast<double>(kSlicePackets);
  // The live mix: alternate slots use 64- and 512-packet FEED lines; rows
  // and bytes per packet as the daemon saw them.
  const double chunks_per_pkt = (1.0 / 64 + 1.0 / 512) / 2;
  const double rows_per_pkt = static_cast<double>(plain.rows) / pkts;
  const double bytes_in_per_pkt = feed_bytes / parsed_pkts;
  const double bytes_out_per_pkt = rows_per_pkt * row_bytes / rows;
  const double explained =
      parse_ns + ring_ns * chunks_per_pkt + step_ns +
      finish_us * 1e3 / session_pkts + row_ns * rows_per_pkt +
      open_us * 1e3 / session_pkts +
      wire.ns_per_byte * (bytes_in_per_pkt + bytes_out_per_pkt);

  r.add("serve.feed_parse.ns_per_pkt", parse_ns, "ns",
        spans("serve.feed_parse"));
  r.add("serve.feed.bytes_per_pkt", bytes_in_per_pkt, "B",
        spans("serve.feed_parse"));
  r.add("stream.ring_push.ns_per_chunk", ring_ns, "ns",
        spans("stream.ring_push"));
  r.add("stream.engine_step.ns_per_pkt", step_ns, "ns",
        spans("stream.engine_step"));
  r.add("stream.engine_finish.us", finish_us, "us",
        spans("stream.engine_finish"));
  r.add("netsample.row_emit.ns_per_row", row_ns, "ns",
        spans("netsample.row_emit"));
  r.add("netsample.open.us", open_us, "us", spans("netsample.open"));
  r.add("serve.start.ms", start_ms, "ms", 1);
  const PerSecond sec = per_second(plain);
  r.add("serve.window_p50_ms", median(sec.p50_ms), "ms", sec.windows);
  r.add("serve.window_p90_ms", median(sec.p90_ms), "ms", sec.windows);
  r.add("serve.window_p99_ms", median(sec.p99_ms), "ms", sec.windows);
  r.add("serve.open_rtt.p50_ms", quantile(traced.open_ms, 0.5), "ms",
        traced.open_ms.size());
  r.add("serve.close_rtt.p50_ms", quantile(traced.close_ms, 0.5), "ms",
        traced.close_ms.size());
  r.add("serve.close_rtt.p99_ms", quantile(traced.close_ms, 0.99), "ms",
        traced.close_ms.size());
  r.add("serve.daemon.cpu_share", plain.daemon_cpu_s / (plain.seconds * cpus),
        "ratio", plain.sessions);
  r.add("serve.shed", shed, "count", 1);
  r.add("serve.rejected", rejected, "count", 1);
  r.add("serve.residual.ns_per_pkt", cpu_ns - explained, "ns", plain.sessions);
  r.add("serve.proto_ceiling.pkts_per_s",
        1e9 / (parse_ns + wire.ns_per_byte * bytes_in_per_pkt), "pkt/s",
        spans("serve.feed_parse"));
  r.add("client.cpu_share", plain.client_cpu_s / (plain.seconds * cpus),
        "ratio", plain.sessions);
  // Spans are recorded by the client, so tracing costs client CPU.
  r.add("serve_windows.trace_overhead_share",
        (traced.client_cpu_s / static_cast<double>(traced.packets)) /
                (plain.client_cpu_s / pkts) -
            1.0,
        "ratio", traced.sessions);

  std::printf("serve untraced: %.0f pkt/s, daemon %.1f ns/pkt, stages %.1f "
              "ns/pkt, residual %.1f ns/pkt\n",
              pkts / plain.seconds, cpu_ns, explained, cpu_ns - explained);
  L.print("serve ledger");
  return r;
}

}  // namespace perfbench
