// The serving layer (src/serve/) and the facade's session vocabulary
// (netsample/session.h): spec codec and validation, the wire protocol
// parsers, and the Server itself driven in-process over socketpairs —
// session rows byte-identical to a direct engine run, admission and
// shedding budgets enforced per tenant, survivors never perturbed, a stop
// request draining every open session, FEED parsed on the lanes behind
// per-connection flow control, and the daemon's line cap.
#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "netsample/netsample.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/serve.h"
#include "shard/transport.h"

namespace netsample::serve {
namespace {

// ---- fixtures ------------------------------------------------------------

/// A deterministic synthetic packet sequence: strictly increasing
/// timestamps, sizes cycling over the valid range.
std::vector<trace::PacketRecord> make_packets(std::size_t n) {
  std::vector<trace::PacketRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{(i + 1) * 1000};
    p.size = static_cast<std::uint16_t>(28 + (i * 37) % 1400);
    p.protocol = 6;
    out.push_back(p);
  }
  return out;
}

/// The ROWS payloads a session with this spec MUST produce for `packets`:
/// a direct engine run through the same facade helpers `watch` uses.
std::vector<std::string> reference_rows(
    const SessionSpec& spec, std::span<const trace::PacketRecord> packets) {
  stream::Engine engine(session_lanes(spec), session_engine_options(spec));
  std::vector<std::string> rows;
  const auto emit = [&rows](const stream::WindowScore& w) {
    for (const auto& cells : session_row_cells(w)) {
      rows.push_back(json_line(session_row_columns(), cells));
    }
  };
  engine.on_snapshot(emit);
  engine.feed(packets);
  emit(engine.finish());
  return rows;
}

/// One in-process client: the far end of a socketpair whose near end the
/// server adopted. read_line() blocks, so expectations stay ordered.
struct TestClient {
  std::unique_ptr<shard::Transport> transport;

  void send(const std::string& line) {
    ASSERT_TRUE(transport->write_line(line));
  }

  /// Lines read past while waiting for a specific reply (session output
  /// from drain lanes is not ordered against protocol-thread replies);
  /// drain_all() consumes these before touching the transport again.
  std::vector<std::string> stashed;

  /// Blocking read straight off the transport, failing the test on EOF.
  /// Never consults the stash — wait_stats() both reads here and appends
  /// there, and going through the stash would recycle its own leftovers.
  std::string read_transport_line() {
    std::string line;
    for (;;) {
      switch (transport->read_line(&line)) {
        case shard::ReadResult::kLine: return line;
        case shard::ReadResult::kInterrupted: continue;
        default:
          ADD_FAILURE() << "transport closed while expecting a line";
          return {};
      }
    }
  }

  /// Next line: stashed leftovers first, then the transport.
  std::string next_line() {
    if (!stashed.empty()) {
      std::string line = std::move(stashed.front());
      stashed.erase(stashed.begin());
      return line;
    }
    return read_transport_line();
  }

  /// Read until the STATS reply, stashing any session lines that beat it
  /// onto the wire. Because the protocol loop handles lines in order, the
  /// reply doubles as a barrier: every earlier command has been consumed.
  std::string wait_stats() {
    for (;;) {
      std::string line = read_transport_line();
      if (line.empty() || line.rfind("STATS ", 0) == 0) return line;
      stashed.push_back(std::move(line));
    }
  }

  struct SessionEnd {
    std::string verdict;  // "CLOSED" / "SHED" / "REJECT"
    std::string detail;   // text after "<verdict> <id> "
    std::vector<std::string> rows;
  };

  /// Lines drain_all() read past that were neither ROWS nor a terminal
  /// line (ERROR, STATS, OPENED).
  std::vector<std::string> others;

  /// Read until every listed session hit its terminal line (CLOSED/SHED/
  /// REJECT), accumulating ROWS for ALL of them as they interleave. Session
  /// output from different drain lanes arrives in arbitrary order, so a
  /// single pass over the shared transport is the only correct way to
  /// collect more than one session.
  std::map<std::string, SessionEnd> drain_all(
      const std::vector<std::string>& ids) {
    std::map<std::string, SessionEnd> ends;
    std::size_t remaining = ids.size();
    while (remaining > 0) {
      const std::string line = next_line();
      if (line.empty()) break;  // transport died; failure already added
      const std::size_t sp1 = line.find(' ');
      if (sp1 == std::string::npos) continue;
      const std::string verb = line.substr(0, sp1);
      const std::size_t sp2 = line.find(' ', sp1 + 1);
      const std::string line_id = line.substr(
          sp1 + 1, sp2 == std::string::npos ? std::string::npos
                                            : sp2 - sp1 - 1);
      const std::string rest =
          sp2 == std::string::npos ? std::string() : line.substr(sp2 + 1);
      if (verb == "ROWS") {
        ends[line_id].rows.push_back(rest);
      } else if (verb == "CLOSED" || verb == "SHED" || verb == "REJECT") {
        SessionEnd& end = ends[line_id];
        end.verdict = verb;
        end.detail = rest;
        --remaining;
      } else {
        others.push_back(line);
      }
    }
    return ends;
  }

  /// Single-session convenience — sound only while `id` is the one session
  /// with output in flight.
  SessionEnd drain_session(const std::string& id) {
    return drain_all({id})[id];
  }
};

/// Server + run() thread over adopted socketpairs (no listener: run()
/// returns once the last client hangs up).
struct ServerHarness {
  Server server;
  std::thread runner;

  explicit ServerHarness(ServeOptions options) : server(std::move(options)) {}

  /// Adopt one client; call for every client BEFORE run_async().
  TestClient connect() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adopt_client(
        shard::make_fd_transport(fds[0], fds[0], kMaxLineBytes));
    return TestClient{
        shard::make_fd_transport(fds[1], fds[1], shard::kDefaultMaxLine), {},
        {}};
  }

  void run_async() {
    runner = std::thread([this] { server.run(); });
  }

  ~ServerHarness() {
    if (runner.joinable()) runner.join();
  }
};

SessionSpec small_spec() {
  SessionSpec spec;
  spec.method = core::Method::kSimpleRandom;  // seed-sensitive on purpose
  spec.granularity = 10;
  spec.replications = 2;
  spec.seed = 7;
  spec.population = 400;
  spec.window_s = 0.1;
  spec.stride_s = 0.1;
  return spec;
}

// ---- SessionSpec codec ---------------------------------------------------

TEST(SessionCodec, RoundTripsEveryField) {
  SessionSpec spec;
  spec.method = core::Method::kStratifiedTimer;
  spec.granularity = 1234;
  spec.replications = 9;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.targets = "iat";
  spec.window_s = 2.5;
  spec.stride_s = 0.125;
  spec.population = 81792;
  spec.mean_iat_usec = 36.71875;
  spec.chunk_packets = 97;
  spec.ring_capacity = 3;
  spec.deadline_s = 30.0;
  spec.tenant = "team-a.prod_1";

  SessionSpec decoded;
  ASSERT_TRUE(decode_session_spec(encode_session_spec(spec), &decoded));
  EXPECT_EQ(decoded, spec);
}

TEST(SessionCodec, RoundTripsDefaults) {
  const SessionSpec spec;
  SessionSpec decoded;
  ASSERT_TRUE(decode_session_spec(encode_session_spec(spec), &decoded));
  EXPECT_EQ(decoded, spec);
}

TEST(SessionCodec, RejectsMalformedEncodings) {
  const std::string good = encode_session_spec(SessionSpec{});
  SessionSpec out;
  EXPECT_TRUE(decode_session_spec(good, &out));

  EXPECT_FALSE(decode_session_spec("", &out));
  EXPECT_FALSE(decode_session_spec("v=2" + good.substr(3), &out));  // version
  EXPECT_FALSE(decode_session_spec(good + ",bogus=1", &out));   // unknown key
  EXPECT_FALSE(decode_session_spec(good + ",m=random", &out));  // duplicate
  EXPECT_FALSE(decode_session_spec(good.substr(0, good.rfind(',')), &out));
  EXPECT_FALSE(decode_session_spec("k=10", &out));  // missing everything else

  std::string bad_num = good;
  bad_num.replace(bad_num.find("k=50"), 4, "k=5x");
  EXPECT_FALSE(decode_session_spec(bad_num, &out));
}

// ---- validation ----------------------------------------------------------

TEST(SessionValidate, AcceptsDefaultsAndWatchLikeSpecs) {
  EXPECT_TRUE(validate_session_spec(SessionSpec{}).is_ok());
  EXPECT_TRUE(validate_session_spec(small_spec()).is_ok());
}

TEST(SessionValidate, RejectsInconsistentSpecs) {
  using core::Method;
  const auto expect_bad = [](SessionSpec spec, const char* why) {
    const Status status = validate_session_spec(spec);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << why;
  };

  SessionSpec spec;
  spec.granularity = 0;
  expect_bad(spec, "zero granularity");

  spec = SessionSpec{};
  spec.method = Method::kSimpleRandom;  // population stays 0
  expect_bad(spec, "random sampling needs a population");

  spec = SessionSpec{};
  spec.method = Method::kSystematicTimer;  // mean_iat stays 0
  expect_bad(spec, "timer methods need the mean interarrival");

  spec = SessionSpec{};
  spec.targets = "ports";
  expect_bad(spec, "targets must be both|size|iat");

  spec = SessionSpec{};
  spec.replications = 33;  // 2 targets x 33 reps = 66 > kMaxLanes
  expect_bad(spec, "lane count beyond Engine::kMaxLanes");

  spec = SessionSpec{};
  spec.ring_capacity = 0;
  expect_bad(spec, "zero ring capacity");

  spec = SessionSpec{};
  spec.window_s = -1;
  expect_bad(spec, "negative window");

  spec = SessionSpec{};
  spec.tenant = "no spaces allowed";
  expect_bad(spec, "tenant breaks the wire encoding");

  spec = SessionSpec{};
  spec.tenant = "";
  expect_bad(spec, "empty tenant");
}

// ---- protocol parsers ----------------------------------------------------

TEST(ServeProtocol, ParsesEveryVerb) {
  ClientMessage msg;
  std::string error;

  ASSERT_TRUE(parse_client_line("OPEN s1 v=1,m=systematic", &msg, &error));
  EXPECT_EQ(msg.command, ClientCommand::kOpen);
  EXPECT_EQ(msg.session_id, "s1");
  EXPECT_EQ(msg.payload, "v=1,m=systematic");

  ASSERT_TRUE(parse_client_line("FEED s1 10:100 20:200", &msg, &error));
  EXPECT_EQ(msg.command, ClientCommand::kFeed);
  EXPECT_EQ(msg.payload, "10:100 20:200");

  ASSERT_TRUE(parse_client_line("CLOSE s1", &msg, &error));
  EXPECT_EQ(msg.command, ClientCommand::kClose);

  ASSERT_TRUE(parse_client_line("STATS", &msg, &error));
  EXPECT_EQ(msg.command, ClientCommand::kStats);

  ASSERT_TRUE(parse_client_line("BYE", &msg, &error));
  EXPECT_EQ(msg.command, ClientCommand::kBye);
}

TEST(ServeProtocol, RejectsMalformedLines) {
  ClientMessage msg;
  std::string error;
  EXPECT_FALSE(parse_client_line("", &msg, &error));
  EXPECT_FALSE(parse_client_line("NOPE s1", &msg, &error));
  EXPECT_FALSE(parse_client_line("OPEN", &msg, &error));          // no id
  EXPECT_FALSE(parse_client_line("OPEN ba!d x=1", &msg, &error));
  EXPECT_FALSE(parse_client_line("STATS s1", &msg, &error));      // operand
  EXPECT_FALSE(parse_client_line("CLOSE", &msg, &error));
  EXPECT_FALSE(
      parse_client_line("OPEN " + std::string(kMaxSessionIdLen + 1, 'a') +
                            " v=1",
                        &msg, &error));
}

TEST(ServeProtocol, FeedPayloadRoundTripsAndClamps) {
  const auto packets = make_packets(5);
  const std::string payload =
      encode_feed_payload(std::span<const trace::PacketRecord>(packets));

  MicroTime last{};
  FeedChunk chunk;
  ASSERT_TRUE(parse_feed_payload(payload, &last, &chunk));
  ASSERT_EQ(chunk.packets.size(), packets.size());
  EXPECT_EQ(chunk.clamped, 0u);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(chunk.packets[i].timestamp.usec, packets[i].timestamp.usec);
    EXPECT_EQ(chunk.packets[i].size, packets[i].size);
  }

  // A timestamp running backwards is clamped to the running max — the
  // PcapSource salvage rule, so serve and watch see identical sequences.
  MicroTime last2{};
  FeedChunk chunk2;
  ASSERT_TRUE(parse_feed_payload("5000:100 1000:200 6000:300", &last2,
                                 &chunk2));
  EXPECT_EQ(chunk2.packets[1].timestamp.usec, 5000u);
  EXPECT_EQ(chunk2.clamped, 1u);

  FeedChunk bad;
  MicroTime t{};
  EXPECT_FALSE(parse_feed_payload("", &t, &bad));
  EXPECT_FALSE(parse_feed_payload("1000", &t, &bad));
  EXPECT_FALSE(parse_feed_payload("1000:0", &t, &bad));      // size 0
  EXPECT_FALSE(parse_feed_payload("1000:70000", &t, &bad));  // size > u16
  EXPECT_FALSE(parse_feed_payload("1000:12x", &t, &bad));
}

// ---- the daemon, in-process ---------------------------------------------

TEST(ServeDaemon, SessionRowsMatchDirectEngineByteForByte) {
  const auto packets = make_packets(600);
  const SessionSpec spec = small_spec();
  const auto expected = reference_rows(
      spec, std::span<const trace::PacketRecord>(packets));
  ASSERT_FALSE(expected.empty());

  ServerHarness harness{ServeOptions{}};
  TestClient client = harness.connect();
  harness.run_async();

  client.send("OPEN s1 " + encode_session_spec(spec));
  EXPECT_EQ(client.next_line(), "OPENED s1");
  // Deliberately awkward chunking: 97 packets per FEED. The engine contract
  // makes chunking invisible, so the rows must still match exactly.
  for (std::size_t at = 0; at < packets.size(); at += 97) {
    const std::size_t len = std::min<std::size_t>(97, packets.size() - at);
    client.send("FEED s1 " +
                encode_feed_payload(std::span<const trace::PacketRecord>(
                    packets.data() + at, len)));
  }
  client.send("CLOSE s1");
  const auto end = client.drain_session("s1");
  EXPECT_EQ(end.verdict, "CLOSED");
  EXPECT_EQ(end.detail, "rows=" + std::to_string(expected.size()) +
                            " packets=" + std::to_string(packets.size()));
  EXPECT_EQ(end.rows, expected);
  client.transport->close();
}

TEST(ServeDaemon, ConcurrentSessionsWithDistinctSeedsStayIsolated) {
  const auto packets = make_packets(500);
  const std::span<const trace::PacketRecord> all(packets);

  constexpr int kSessions = 6;
  std::vector<SessionSpec> specs;
  for (int i = 0; i < kSessions; ++i) {
    SessionSpec spec = small_spec();
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    specs.push_back(spec);
  }

  ServerHarness harness{ServeOptions{}};
  TestClient client = harness.connect();
  harness.run_async();

  // All OPENs first — the sessions really are concurrent — then FEEDs
  // round-robin interleaved so their chunks contend in the lane pool.
  for (int i = 0; i < kSessions; ++i) {
    client.send("OPEN s" + std::to_string(i) + " " +
                encode_session_spec(specs[i]));
  }
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(client.next_line(), "OPENED s" + std::to_string(i));
  }
  for (std::size_t at = 0; at < packets.size(); at += 125) {
    const std::size_t len = std::min<std::size_t>(125, packets.size() - at);
    const std::string payload = encode_feed_payload(
        std::span<const trace::PacketRecord>(packets.data() + at, len));
    for (int i = 0; i < kSessions; ++i) {
      client.send("FEED s" + std::to_string(i) + " " + payload);
    }
  }
  std::vector<std::string> ids;
  for (int i = 0; i < kSessions; ++i) {
    ids.push_back("s" + std::to_string(i));
    client.send("CLOSE " + ids.back());
  }
  // However the daemon interleaved the lanes, every session must equal the
  // sequential single-engine run of its own seed — zero cross-talk.
  auto ends = client.drain_all(ids);
  for (int i = 0; i < kSessions; ++i) {
    const auto& end = ends[ids[i]];
    EXPECT_EQ(end.verdict, "CLOSED") << "session " << i;
    EXPECT_EQ(end.rows, reference_rows(specs[i], all)) << "session " << i;
  }
  client.transport->close();
}

TEST(ServeDaemon, AdmissionBudgetRejectsAndCountsWithoutHurtingSurvivor) {
  obs::set_enabled(true);
  obs::Counter& rejected = obs::registry().counter(
      "netsample_serve_sessions_rejected_total",
      obs::Determinism::kDeterministic);
  obs::Counter& opened = obs::registry().counter(
      "netsample_serve_sessions_opened_total",
      obs::Determinism::kDeterministic);
  const std::uint64_t rejected_before = rejected.value();
  const std::uint64_t opened_before = opened.value();

  const auto packets = make_packets(300);
  const SessionSpec spec = small_spec();

  ServeOptions options;
  options.default_budget.max_sessions = 1;
  ServerHarness harness{std::move(options)};
  TestClient client = harness.connect();
  harness.run_async();

  client.send("OPEN keeper " + encode_session_spec(spec));
  EXPECT_EQ(client.next_line(), "OPENED keeper");
  client.send("OPEN excess " + encode_session_spec(spec));
  EXPECT_EQ(client.next_line(), "REJECT excess sessions-budget");
  // A duplicate id is a REJECT too, and must not disturb the live session.
  client.send("OPEN keeper " + encode_session_spec(spec));
  EXPECT_EQ(client.next_line(), "REJECT keeper duplicate-id");

  client.send("FEED keeper " + encode_feed_payload(
                                   std::span<const trace::PacketRecord>(
                                       packets)));
  client.send("CLOSE keeper");
  const auto end = client.drain_session("keeper");
  EXPECT_EQ(end.verdict, "CLOSED");
  EXPECT_EQ(end.rows,
            reference_rows(spec,
                           std::span<const trace::PacketRecord>(packets)));
  client.transport->close();
  harness.runner.join();

  EXPECT_EQ(opened.value() - opened_before, 1u);
  EXPECT_EQ(rejected.value() - rejected_before, 2u);
}

TEST(ServeDaemon, OverloadedTenantIsShedAndSurvivorRowsDoNotChange) {
  obs::set_enabled(true);
  obs::Counter& shed = obs::registry().counter(
      "netsample_serve_sessions_shed_total",
      obs::Determinism::kNondeterministic);
  const std::uint64_t shed_before = shed.value();

  const auto packets = make_packets(400);
  const std::span<const trace::PacketRecord> all(packets);

  SessionSpec bulk = small_spec();
  bulk.tenant = "bulk";
  const SessionSpec fine = small_spec();  // default tenant, unlimited

  ServeOptions options;
  // One FEED of 400 records (~12 KB) overflows bulk's queued-bytes budget
  // deterministically; the default tenant keeps no budget at all.
  options.tenant_budgets["bulk"] = TenantBudget{0, 1024, 0};
  ServerHarness harness{std::move(options)};
  TestClient client = harness.connect();
  harness.run_async();

  client.send("OPEN b " + encode_session_spec(bulk));
  client.send("OPEN f " + encode_session_spec(fine));
  EXPECT_EQ(client.next_line(), "OPENED b");
  EXPECT_EQ(client.next_line(), "OPENED f");

  client.send("FEED b " + encode_feed_payload(all));
  client.send("FEED f " + encode_feed_payload(all));
  client.send("CLOSE f");
  auto ends = client.drain_all({"b", "f"});
  EXPECT_EQ(ends["b"].verdict, "SHED");
  EXPECT_EQ(ends["b"].detail, "ring-bytes");
  EXPECT_EQ(ends["f"].verdict, "CLOSED");
  EXPECT_EQ(ends["f"].rows, reference_rows(fine, all));

  // Late traffic for the shed session is dropped silently, not an error,
  // and must not wedge the daemon: the next line after it is the STATS
  // reply, with no ERROR in between.
  client.send("FEED b " + encode_feed_payload(all));
  client.send("STATS");
  const std::string stats = client.wait_stats();
  EXPECT_EQ(stats.rfind("STATS active=", 0), 0u) << stats;
  client.transport->close();
  harness.runner.join();

  EXPECT_GE(shed.value() - shed_before, 1u);
}

TEST(ServeDaemon, PacketRateBudgetShedsTheFloodingSession) {
  const auto packets = make_packets(200);
  SessionSpec spec = small_spec();
  spec.tenant = "metered";

  ServeOptions options;
  // Bucket primes to a full 1 s burst (50 packets); a 200-packet FEED
  // overruns it on the spot — no timing dependence in the test.
  options.tenant_budgets["metered"] = TenantBudget{0, 0, 50};
  ServerHarness harness{std::move(options)};
  TestClient client = harness.connect();
  harness.run_async();

  client.send("OPEN flood " + encode_session_spec(spec));
  EXPECT_EQ(client.next_line(), "OPENED flood");
  client.send("FEED flood " +
              encode_feed_payload(std::span<const trace::PacketRecord>(
                  packets)));
  const auto end = client.drain_session("flood");
  EXPECT_EQ(end.verdict, "SHED");
  EXPECT_EQ(end.detail, "pps-budget");
  client.transport->close();
}

TEST(ServeDaemon, GarbageInputShedsThatSessionOnly) {
  const auto packets = make_packets(300);
  const SessionSpec spec = small_spec();

  ServerHarness harness{ServeOptions{}};
  TestClient client = harness.connect();
  harness.run_async();

  client.send("OPEN bad " + encode_session_spec(spec));
  client.send("OPEN good " + encode_session_spec(spec));
  EXPECT_EQ(client.next_line(), "OPENED bad");
  EXPECT_EQ(client.next_line(), "OPENED good");

  client.send("FEED bad 1000:not-a-size");
  client.send("FEED good " +
              encode_feed_payload(std::span<const trace::PacketRecord>(
                  packets)));
  client.send("CLOSE good");
  auto ends = client.drain_all({"bad", "good"});
  EXPECT_EQ(ends["bad"].verdict, "SHED");
  EXPECT_EQ(ends["bad"].detail, "input-error");
  EXPECT_EQ(ends["good"].verdict, "CLOSED");
  EXPECT_EQ(ends["good"].rows,
            reference_rows(spec,
                           std::span<const trace::PacketRecord>(packets)));
  client.transport->close();
}

TEST(ServeDaemon, ProtocolErrorsAreReportedNotFatal) {
  ServerHarness harness{ServeOptions{}};
  TestClient client = harness.connect();
  harness.run_async();

  client.send("FEED ghost 1000:100");
  EXPECT_EQ(client.next_line(), "ERROR FEED unknown session ghost");
  client.send("FROBNICATE x");
  const std::string err = client.next_line();
  EXPECT_EQ(err.rfind("ERROR ", 0), 0u) << err;
  client.send("OPEN s1 this-is-not-a-spec");
  EXPECT_EQ(client.next_line(), "REJECT s1 bad-spec");
  client.send("STATS");
  const std::string stats = client.next_line();
  EXPECT_EQ(stats.rfind("STATS active=", 0), 0u) << stats;
  client.transport->close();
}

TEST(ServeDaemon, StopRequestDrainsOpenSessionsToClosed) {
  const auto packets = make_packets(250);
  const SessionSpec spec = small_spec();

  ServerHarness harness{ServeOptions{}};
  TestClient client = harness.connect();
  harness.run_async();

  client.send("OPEN s1 " + encode_session_spec(spec));
  EXPECT_EQ(client.next_line(), "OPENED s1");
  client.send("FEED s1 " +
              encode_feed_payload(std::span<const trace::PacketRecord>(
                  packets)));
  // STATS is handled by the same protocol loop, in order: its reply proves
  // the FEED has been consumed, so the stop below can't outrun it.
  client.send("STATS");
  EXPECT_EQ(client.wait_stats().rfind("STATS active=", 0), 0u);
  // No CLOSE: the stop request must finish the session for us — the
  // SIGTERM drain contract.
  harness.server.request_stop();
  const auto end = client.drain_session("s1");
  EXPECT_EQ(end.verdict, "CLOSED");
  EXPECT_EQ(end.rows,
            reference_rows(spec,
                           std::span<const trace::PacketRecord>(packets)));
  client.transport->close();
}

// ---- FEED parsed on the lanes, behind per-connection flow control --------

/// The packets a session scores for `packets`: FEED's running-max clamp
/// applied, as the lane applies it across FEED lines.
std::vector<trace::PacketRecord> clamped(
    std::vector<trace::PacketRecord> packets) {
  std::uint64_t last = 0;
  for (auto& p : packets) {
    last = std::max(last, p.timestamp.usec);
    p.timestamp.usec = last;
  }
  return packets;
}

/// Send `packets` as FEED lines of `per_line` packets each.
void feed_all(TestClient& client, const std::string& id,
              std::span<const trace::PacketRecord> packets,
              std::size_t per_line) {
  for (std::size_t at = 0; at < packets.size(); at += per_line) {
    const std::size_t len = std::min(per_line, packets.size() - at);
    client.send("FEED " + id + " " +
                encode_feed_payload(packets.subspan(at, len)));
  }
}

TEST(ServeDaemon, LaneParseMatchesDirectEngineAtEveryFeedSize) {
  // Timestamps run backwards right at a FEED-line boundary for every size
  // below (4096 and 8192 are multiples of 1, 64 and 4096), so the clamp
  // state must travel from one line to the next on the lane.
  auto packets = make_packets(10000);
  packets[4096].timestamp.usec = packets[4095].timestamp.usec - 500;
  packets[8192].timestamp.usec = packets[8191].timestamp.usec - 1500;
  const std::span<const trace::PacketRecord> all(packets);
  const auto scored = clamped(packets);
  const SessionSpec spec = small_spec();
  const auto expected =
      reference_rows(spec, std::span<const trace::PacketRecord>(scored));
  ASSERT_FALSE(expected.empty());

  for (const std::size_t per_line : {1, 64, 4096}) {
    ServerHarness harness{ServeOptions{}};
    TestClient client = harness.connect();
    harness.run_async();
    client.send("OPEN s " + encode_session_spec(spec));
    EXPECT_EQ(client.next_line(), "OPENED s");
    // Send from a second thread while this one reads: ten thousand lines
    // one way and hundreds of ROWS the other fill both socket buffers, and
    // a client that only reads once it has sent everything would wedge.
    std::thread sender([&client, all, per_line] {
      feed_all(client, "s", all, per_line);
      client.send("CLOSE s");
    });
    const auto end = client.drain_session("s");
    sender.join();
    EXPECT_EQ(end.verdict, "CLOSED") << per_line;
    EXPECT_EQ(end.detail, "rows=" + std::to_string(expected.size()) +
                              " packets=" + std::to_string(packets.size()))
        << per_line;
    EXPECT_EQ(end.rows, expected) << "packets per FEED " << per_line;
    client.transport->close();
  }
}

TEST(ServeDaemon, MalformedFeedShedsOnTheLaneAfterTheFeedsAheadOfIt) {
  const auto packets = make_packets(300);
  const std::span<const trace::PacketRecord> all(packets);
  const SessionSpec spec = small_spec();

  // What the valid FEEDs ahead of the bad one emit: their window ticks,
  // and no final window (the session never closes).
  std::vector<std::string> ticks;
  {
    stream::Engine engine(session_lanes(spec), session_engine_options(spec));
    engine.on_snapshot([&ticks](const stream::WindowScore& w) {
      for (const auto& cells : session_row_cells(w)) {
        ticks.push_back(json_line(session_row_columns(), cells));
      }
    });
    engine.feed(all);
  }
  ASSERT_FALSE(ticks.empty());

  ServerHarness harness{ServeOptions{}};
  TestClient client = harness.connect();
  harness.run_async();
  client.send("OPEN bad " + encode_session_spec(spec));
  client.send("OPEN good " + encode_session_spec(spec));
  EXPECT_EQ(client.next_line(), "OPENED bad");
  EXPECT_EQ(client.next_line(), "OPENED good");

  feed_all(client, "bad", all, 100);
  client.send("FEED bad 400000:12 400001:x");  // framed fine, parse fails
  feed_all(client, "good", all, 100);
  client.send("CLOSE good");
  auto ends = client.drain_all({"bad", "good"});
  EXPECT_EQ(ends["bad"].verdict, "SHED");
  EXPECT_EQ(ends["bad"].detail, "input-error");
  EXPECT_EQ(ends["bad"].rows, ticks);
  EXPECT_EQ(ends["good"].verdict, "CLOSED");
  EXPECT_EQ(ends["good"].rows, reference_rows(spec, all));
  // The refusal is the shed alone: no ERROR line on the connection.
  for (const auto& line : client.others) {
    EXPECT_NE(line.rfind("ERROR", 0), 0u) << line;
  }
  client.transport->close();
}

TEST(ServeDaemon, FullRingPausesOnlyItsOwnConnection) {
  if (!obs::detail::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (NETSAMPLE_OBS=OFF)";
  }
  obs::set_enabled(true);
  obs::Counter& pauses = obs::registry().counter(
      "netsample_serve_read_pauses_total",
      obs::Determinism::kNondeterministic);
  const std::uint64_t pauses_before = pauses.value();

  const auto packets = make_packets(500);
  const std::span<const trace::PacketRecord> all(packets);
  SessionSpec flood_spec = small_spec();
  flood_spec.ring_capacity = 1;
  const SessionSpec calm_spec = small_spec();

  ServeOptions options;
  options.lanes = 1;
  ServerHarness harness{std::move(options)};
  TestClient flood = harness.connect();
  TestClient calm = harness.connect();
  harness.run_async();
  flood.send("OPEN f " + encode_session_spec(flood_spec));
  calm.send("OPEN c " + encode_session_spec(calm_spec));
  EXPECT_EQ(flood.next_line(), "OPENED f");
  EXPECT_EQ(calm.next_line(), "OPENED c");

  // 500 one-packet FEED lines in one write, without waiting: the daemon
  // reads them together and routes the next before the one lane can pop
  // the session's one-line ring, so the connection pauses. Sent one line
  // per write, a daemon that keeps up reads them one at a time and the
  // lane empties the ring between reads.
  std::string burst;
  for (std::size_t i = 0; i < all.size(); ++i) {
    burst += "FEED f " + encode_feed_payload(all.subspan(i, 1)) + "\n";
  }
  ASSERT_TRUE(flood.transport->write_bytes(burst));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pauses.value() == pauses_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GT(pauses.value(), pauses_before)
      << "the flooded connection never paused";
  // The protocol thread is not stuck behind the flood: the other
  // connection's STATS is answered.
  calm.send("STATS");
  EXPECT_EQ(calm.wait_stats().rfind("STATS active=2 ", 0), 0u);

  feed_all(calm, "c", all, 100);
  calm.send("CLOSE c");
  flood.send("CLOSE f");
  const auto calm_end = calm.drain_session("c");
  const auto flood_end = flood.drain_session("f");
  EXPECT_EQ(calm_end.verdict, "CLOSED");
  EXPECT_EQ(calm_end.rows, reference_rows(calm_spec, all));
  EXPECT_EQ(flood_end.verdict, "CLOSED");
  EXPECT_EQ(flood_end.rows, reference_rows(flood_spec, all));
  flood.transport->close();
  calm.transport->close();
}

TEST(ServeDaemon, ClientThatReadsOnlyAfterWritingIsShedNotWedged) {
  // Every FEED (512 packets, about 7 KB a line) goes out before the client
  // reads a line. Its unread ROWS soon block the lane's write, so no lane
  // gives the connection's read-ahead back, and the daemon stops reading
  // it long before the client is done writing. That wait is bounded like
  // a full ring's: after kRingFullWait the session is shed ring-full, the
  // rest of its FEEDs are read and dropped, and the client reaches its
  // reads.
  const auto packets = make_packets(512 * 400);
  const std::span<const trace::PacketRecord> all(packets);
  const SessionSpec spec = small_spec();
  const auto expected = reference_rows(spec, all);

  ServeOptions options;
  options.lanes = 1;
  ServerHarness harness{std::move(options)};
  TestClient client = harness.connect();
  harness.run_async();
  client.send("OPEN s " + encode_session_spec(spec));
  EXPECT_EQ(client.next_line(), "OPENED s");

  std::atomic<bool> sent{false};
  std::thread writer([&client, &sent, all] {
    feed_all(client, "s", all, 512);
    client.send("CLOSE s");
    sent = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!sent && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(sent) << "the daemon stopped reading the connection for good";
  const auto end = client.drain_session("s");  // frees a wedged writer too
  writer.join();
  EXPECT_EQ(end.verdict, "SHED");
  EXPECT_EQ(end.detail, "ring-full");
  // What was scored before the shed is the reference's beginning.
  ASSERT_LE(end.rows.size(), expected.size());
  EXPECT_TRUE(std::equal(end.rows.begin(), end.rows.end(), expected.begin()));
  client.transport->close();
}

/// The test process's resident set, in KiB (VmRSS).
std::size_t resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      std::size_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

/// The next line within `timeout_ms`, or "" when none comes or the
/// transport closed.
std::string line_within(TestClient& client, int timeout_ms) {
  pollfd ready{client.transport->poll_fd(), POLLIN, 0};
  if (::poll(&ready, 1, timeout_ms) <= 0) return {};
  std::string line;
  return client.transport->read_line(&line) == shard::ReadResult::kLine ? line
                                                                         : "";
}

TEST(ServeDaemon, NewlineFreeFloodIsRefusedWithinTheLineCap) {
  std::signal(SIGPIPE, SIG_IGN);  // the daemon hangs up mid-flood
  const auto packets = make_packets(300);
  const std::span<const trace::PacketRecord> all(packets);
  const SessionSpec spec = small_spec();

  ServerHarness harness{ServeOptions{}};
  TestClient flood = harness.connect();
  TestClient calm = harness.connect();
  harness.run_async();
  flood.send("OPEN doomed " + encode_session_spec(spec));
  EXPECT_EQ(flood.next_line(), "OPENED doomed");

  // 32 MiB with no newline. The daemon refuses the line once it passes
  // kMaxLineBytes, so it never holds more than about the cap plus one read
  // window of it; an unbounded buffer would grow by the whole flood.
  const std::size_t rss_before = resident_kib();
  std::size_t rss_peak = rss_before;
  const std::string block(64 << 10, 'x');
  for (std::size_t sent = 0; sent < (std::size_t{32} << 20);
       sent += block.size()) {
    if (!flood.transport->write_bytes(block)) break;
    rss_peak = std::max(rss_peak, resident_kib());
  }
  EXPECT_EQ(line_within(flood, 10000), "ERROR line too long");
  // Then the daemon hangs up; the session's SHED may beat the hang-up.
  std::string after = line_within(flood, 10000);
  if (after == "SHED doomed disconnect") after = line_within(flood, 10000);
  EXPECT_EQ(after, "");
  EXPECT_LT(rss_peak - rss_before, std::size_t{8} << 10)
      << "KiB of growth during a 32 MiB newline-free flood";

  // The daemon keeps serving its other connection.
  calm.send("OPEN s " + encode_session_spec(spec));
  EXPECT_EQ(calm.next_line(), "OPENED s");
  feed_all(calm, "s", all, 50);
  calm.send("CLOSE s");
  const auto end = calm.drain_session("s");
  EXPECT_EQ(end.verdict, "CLOSED");
  EXPECT_EQ(end.rows, reference_rows(spec, all));
  flood.transport->close();
  calm.transport->close();
  harness.runner.join();
  const ServeStats stats = harness.server.stats();
  EXPECT_EQ(stats.sessions_shed, 1u);  // "doomed", on the disconnect
  EXPECT_EQ(stats.sessions_closed, 1u);
}

TEST(ServeDaemon, OneByteAtATimeClientGetsTheSameRows) {
  const auto packets = make_packets(400);
  const std::span<const trace::PacketRecord> all(packets);
  const SessionSpec spec = small_spec();

  std::string script = "OPEN s " + encode_session_spec(spec) + "\n";
  for (std::size_t at = 0; at < packets.size(); at += 80) {
    script += "FEED s " + encode_feed_payload(all.subspan(at, 80)) + "\n";
  }
  script += "CLOSE s\n";

  ServerHarness harness{ServeOptions{}};
  TestClient client = harness.connect();
  harness.run_async();
  for (const char byte : script) {
    ASSERT_TRUE(client.transport->write_bytes(std::string(1, byte)));
  }
  EXPECT_EQ(client.next_line(), "OPENED s");
  const auto end = client.drain_session("s");
  EXPECT_EQ(end.verdict, "CLOSED");
  EXPECT_EQ(end.rows, reference_rows(spec, all));
  client.transport->close();
}

}  // namespace
}  // namespace netsample::serve
