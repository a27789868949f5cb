// The socket/pipe Transport layer and the netfault wire-impairment
// wrapper: strict host:port parsing, loopback framing, listener/dial
// round trips over 127.0.0.1, the discard-partial-on-close guarantee that
// makes torn RESULT lines unparseable by construction, the framer's line
// cap and linear cost, and the seeded determinism of every fault kind
// (drop, dup, trunc, delay, disconnect).
#include "faultsim/netfault.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exper/journal.h"
#include "shard/protocol.h"
#include "shard/transport.h"

namespace netsample {
namespace {

using faultsim::NetFaultSpec;
using faultsim::NetFaultTransport;
using faultsim::encode_netfault_spec;
using faultsim::parse_netfault_spec;
using shard::ReadResult;
using shard::Transport;

/// A connected pair of pipe transports: lines written to `a` are read from
/// `b` and vice versa (the unit-test stand-in for a socket). `b` delivers
/// lines of at most `b_cap` bytes.
struct Loopback {
  std::unique_ptr<Transport> a;
  std::unique_ptr<Transport> b;

  explicit Loopback(std::size_t b_cap = shard::kDefaultMaxLine) {
    int ab[2] = {-1, -1};
    int ba[2] = {-1, -1};
    EXPECT_EQ(::pipe(ab), 0);
    EXPECT_EQ(::pipe(ba), 0);
    a = shard::make_fd_transport(ba[0], ab[1], shard::kDefaultMaxLine);
    b = shard::make_fd_transport(ab[0], ba[1], b_cap);
  }
};

// ---------------------------------------------------------------------------
// Spec codec.

TEST(NetFaultSpec, CodecRoundTrips) {
  const std::string text =
      "seed=7,drop=0.1,dup=0.05,trunc=0.01,delay=0.2,delay-ms=9,"
      "disconnect-every=40,max-faults=3";
  auto spec = parse_netfault_spec(text);
  ASSERT_TRUE(spec.has_value()) << spec.status().to_string();
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->drop, 0.1);
  EXPECT_EQ(spec->dup, 0.05);
  EXPECT_EQ(spec->trunc, 0.01);
  EXPECT_EQ(spec->delay, 0.2);
  EXPECT_EQ(spec->delay_ms, 9);
  EXPECT_EQ(spec->disconnect_every, 40u);
  EXPECT_EQ(spec->max_faults, 3u);

  auto again = parse_netfault_spec(encode_netfault_spec(*spec));
  ASSERT_TRUE(again.has_value()) << again.status().to_string();
  EXPECT_EQ(again->seed, spec->seed);
  EXPECT_EQ(again->drop, spec->drop);
  EXPECT_EQ(again->dup, spec->dup);
  EXPECT_EQ(again->trunc, spec->trunc);
  EXPECT_EQ(again->delay, spec->delay);
  EXPECT_EQ(again->delay_ms, spec->delay_ms);
  EXPECT_EQ(again->disconnect_every, spec->disconnect_every);
  EXPECT_EQ(again->max_faults, spec->max_faults);
}

TEST(NetFaultSpec, DefaultsRoundTripThroughEncode) {
  auto spec = parse_netfault_spec(encode_netfault_spec(NetFaultSpec{}));
  ASSERT_TRUE(spec.has_value()) << spec.status().to_string();
  EXPECT_EQ(spec->seed, 1u);
  EXPECT_EQ(spec->drop, 0.0);
  EXPECT_EQ(spec->disconnect_every, 0u);
}

TEST(NetFaultSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "bogus=1",          // unknown key
      "drop",             // no '='
      "drop=",            // empty value
      "drop=x",           // not a number
      "drop=0.5x",        // trailing garbage
      "drop=-0.1",        // negative probability
      "drop=1.5",         // probability > 1
      "drop=0.6,dup=0.6", // probabilities sum above 1
      "seed=abc",         // not an integer
      "delay-ms=-1",      // negative duration
      "seed=1,,drop=0.1", // empty item
  };
  for (const char* text : bad) {
    auto spec = parse_netfault_spec(text);
    EXPECT_FALSE(spec.has_value()) << "accepted: " << text;
    if (!spec.has_value()) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

// ---------------------------------------------------------------------------
// Transport: framing, host:port parsing, listener/dial.

TEST(ShardTransport, PipeLoopbackFramesLines) {
  Loopback wire;
  ASSERT_TRUE(wire.a->write_line("LEASE 3"));
  ASSERT_TRUE(wire.a->write_line("STOP"));
  std::string line;
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "LEASE 3");
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "STOP");

  // And the nonblocking coordinator-side path.
  ASSERT_TRUE(wire.b->write_line("RESULT 0 aa"));
  ASSERT_TRUE(wire.b->write_line("RESULT 1 bb"));
  std::vector<std::string> lines;
  ASSERT_EQ(wire.a->drain(&lines), ReadResult::kLine);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "RESULT 0 aa");
  EXPECT_EQ(lines[1], "RESULT 1 bb");
  EXPECT_EQ(wire.a->drain(&lines), ReadResult::kNoData);
}

TEST(ShardTransport, PartialLineIsDiscardedOnClose) {
  // The satellite-3 guarantee at its root: a line with no terminating
  // newline — a torn write from a dying peer — is never delivered.
  Loopback wire;
  ASSERT_TRUE(wire.a->write_line("RESULT 0 complete"));
  ASSERT_TRUE(wire.a->write_bytes("RESULT 1 torn-mid-pay"));
  wire.a->close();
  std::string line;
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "RESULT 0 complete");
  EXPECT_EQ(wire.b->read_line(&line), ReadResult::kClosed);

  // Same through drain(): the torn tail evaporates, kClosed surfaces.
  Loopback wire2;
  ASSERT_TRUE(wire2.a->write_bytes("RESULT 9 torn"));
  wire2.a->close();
  std::vector<std::string> lines;
  ReadResult r = wire2.b->drain(&lines);
  while (r == ReadResult::kNoData || r == ReadResult::kLine) {
    r = wire2.b->drain(&lines);
  }
  EXPECT_EQ(r, ReadResult::kClosed);
  EXPECT_TRUE(lines.empty());
}

TEST(ShardTransport, ParseHostPortIsStrict) {
  auto ok = shard::parse_host_port("127.0.0.1:8080");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->first, "127.0.0.1");
  EXPECT_EQ(ok->second, 8080);

  for (const char* bad :
       {"", "127.0.0.1", ":", "host:", "host:x", "host:12x", "host:-1",
        "host:65536"}) {
    auto parsed = shard::parse_host_port(bad);
    EXPECT_FALSE(parsed.has_value()) << "accepted: " << bad;
  }
}

TEST(ShardTransport, ListenerAcceptAndDialRoundTrip) {
  auto listener = shard::Listener::open("127.0.0.1:0");
  ASSERT_TRUE(listener.has_value()) << listener.status().to_string();
  EXPECT_GT(listener->port(), 0);  // ephemeral port resolved

  auto client = shard::dial(listener->address());
  ASSERT_TRUE(client.has_value()) << client.status().to_string();

  std::unique_ptr<Transport> server;
  for (int i = 0; i < 1000 && server == nullptr; ++i) {
    server = listener->accept_connection();
    if (server == nullptr) ::usleep(1000);
  }
  ASSERT_NE(server, nullptr);

  ASSERT_TRUE((*client)->write_line("HELLO 42 100 0 1"));
  std::string line;
  ASSERT_EQ(server->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "HELLO 42 100 0 1");
  ASSERT_TRUE(server->write_line("LEASE 0"));
  ASSERT_EQ((*client)->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "LEASE 0");

  // Half-close: the peer sees EOF after the last line, reads still work.
  ASSERT_TRUE(server->write_line("STOP"));
  server->shutdown_write();
  ASSERT_EQ((*client)->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "STOP");
  EXPECT_EQ((*client)->read_line(&line), ReadResult::kClosed);
  ASSERT_TRUE((*client)->write_line("BYE 0"));  // our side still writes
  ASSERT_EQ(server->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "BYE 0");
}

TEST(ShardTransport, DialFailsClosedWhenNobodyListens) {
  int dead_port = 0;
  {
    auto listener = shard::Listener::open("127.0.0.1:0");
    ASSERT_TRUE(listener.has_value());
    dead_port = listener->port();
    listener->close();
  }
  shard::DialOptions opts;
  opts.retries = 1;
  opts.initial_backoff_s = 0.01;
  opts.max_backoff_s = 0.02;
  auto conn =
      shard::dial("127.0.0.1:" + std::to_string(dead_port), opts);
  ASSERT_FALSE(conn.has_value());
  EXPECT_EQ(conn.status().code(), StatusCode::kInternal);
}

/// Drain `t` until its reads end; what the last drain said.
ReadResult drain_to_end(Transport& t, std::vector<std::string>* lines) {
  ReadResult r = ReadResult::kNoData;
  while (r == ReadResult::kNoData || r == ReadResult::kLine) r = t.drain(lines);
  return r;
}

TEST(ShardTransport, LineCapRefusesTheFirstLongerLine) {
  for (const bool blocking : {false, true}) {
    Loopback wire{10};
    ASSERT_TRUE(wire.a->write_line("0123456789"));  // exactly the cap
    ASSERT_TRUE(wire.a->write_line("ok\r"));        // '\r' is stripped
    ASSERT_TRUE(wire.a->write_line("0123456789A"));  // one byte over
    ASSERT_TRUE(wire.a->write_line("never"));
    std::vector<std::string> lines;
    ReadResult r = ReadResult::kNoData;
    if (blocking) {
      std::string line;
      while ((r = wire.b->read_line(&line)) == ReadResult::kLine) {
        lines.push_back(line);
      }
    } else {
      r = drain_to_end(*wire.b, &lines);
    }
    EXPECT_EQ(r, ReadResult::kTooLong);
    EXPECT_EQ(lines, (std::vector<std::string>{"0123456789", "ok"}));
    EXPECT_TRUE(wire.b->is_closed());
    // Every later read says why the reads ended.
    std::string line;
    EXPECT_EQ(wire.b->read_line(&line), ReadResult::kTooLong);
    EXPECT_EQ(wire.b->drain(&lines), ReadResult::kTooLong);
  }

  // A partial line is refused as soon as it outgrows the cap, newline or
  // not: the framer never buffers more than the cap plus one read.
  Loopback wire{1000};
  ASSERT_TRUE(wire.a->write_bytes(std::string(4000, 'x')));
  std::vector<std::string> lines;
  EXPECT_EQ(drain_to_end(*wire.b, &lines), ReadResult::kTooLong);
  EXPECT_TRUE(lines.empty());
}

TEST(ShardTransport, LineCapSurvivesAWrappingTransport) {
  // The cap belongs to the fd transport, and its verdict travels up
  // through a wrapper like any other read result.
  Loopback wire{10};
  NetFaultSpec spec;
  spec.seed = 5;
  NetFaultTransport wrapped(spec, std::move(wire.b));
  ASSERT_TRUE(wire.a->write_line("short"));
  ASSERT_TRUE(wire.a->write_line("far too long for the cap"));
  std::vector<std::string> lines;
  EXPECT_EQ(drain_to_end(wrapped, &lines), ReadResult::kTooLong);
  EXPECT_EQ(lines, std::vector<std::string>{"short"});
  std::string line;
  EXPECT_EQ(wrapped.read_line(&line), ReadResult::kTooLong);
}

/// Best of five: the time one drain() takes to frame `lines` one-byte
/// lines that arrived in a single read.
double best_drain_seconds(std::size_t lines) {
  double best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5; ++round) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    auto writer = shard::make_fd_transport(fds[0], fds[0],
                                           shard::kDefaultMaxLine);
    auto reader = shard::make_fd_transport(fds[1], fds[1],
                                           shard::kDefaultMaxLine);
    std::string burst;
    for (std::size_t i = 0; i < lines; ++i) burst += "x\n";
    EXPECT_TRUE(writer->write_bytes(burst));
    std::vector<std::string> out;
    out.reserve(lines);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(reader->drain(&out), ReadResult::kLine);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(out.size(), lines);
    best = std::min(best, took.count());
  }
  return best;
}

TEST(ShardTransport, ManyLineBurstCostsLinearTime) {
  // 8x the lines in one read (the larger burst is exactly one 64 KiB read
  // window) should cost about 8x, not the 64x of a framer that erases
  // from the front once per line.
  const double small = best_drain_seconds(4096);
  const double large = best_drain_seconds(shard::kReadWindow / 2);
  EXPECT_LT(large / small, 24.0)
      << "4096 lines: " << small * 1e6 << " us, 32768 lines: "
      << large * 1e6 << " us";
}

TEST(ShardTransport, LeaseCapHoldsTheWidestResultExactly) {
  core::DisparityMetrics widest;
  for (double* real :
       {&widest.chi2, &widest.dof, &widest.significance, &widest.cost,
        &widest.rcost, &widest.x2, &widest.avg_norm_dev, &widest.phi}) {
    *real = -std::numeric_limits<double>::max();
  }
  widest.sample_n = widest.population_n =
      std::numeric_limits<std::uint64_t>::max();
  core::DisparityMetrics subnormal = widest;
  subnormal.phi = -std::numeric_limits<double>::denorm_min() * 3;
  for (const std::size_t reps : {1, 3, 400, 5000}) {
    shard::Message m;
    m.type = shard::MessageType::kResult;
    m.index = std::numeric_limits<std::uint64_t>::max();
    m.text = exper::encode_replications(
        std::vector<core::DisparityMetrics>(reps, widest));
    const std::size_t longest = shard::format_message(m).size();
    EXPECT_EQ(shard::max_lease_line(reps),
              std::max(longest, shard::kReadWindow))
        << reps;
    m.text = exper::encode_replications(
        std::vector<core::DisparityMetrics>(reps, subnormal));
    EXPECT_LE(shard::format_message(m).size(), longest) << reps;
  }
  // Every in-repo writer fits the default cap, up to 10^6 replications.
  EXPECT_LT(shard::max_lease_line(1000000), shard::kDefaultMaxLine);
}

// ---------------------------------------------------------------------------
// NetFaultTransport: each fault kind, exemptions, determinism.

TEST(NetFaultTransport, DropVanishesExactlyOneLine) {
  Loopback wire;
  NetFaultSpec spec;
  spec.seed = 5;
  spec.drop = 1.0;
  spec.max_faults = 1;
  NetFaultTransport faulty(spec, std::move(wire.a));

  ASSERT_TRUE(faulty.write_line("RESULT 0 gone"));  // sender believes it went
  ASSERT_TRUE(faulty.write_line("RESULT 1 kept"));
  std::string line;
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "RESULT 1 kept");
  EXPECT_EQ(faulty.report().dropped, 1u);
  EXPECT_EQ(faulty.report().lines_seen, 2u);
}

TEST(NetFaultTransport, DuplicateDeliversTheLineTwice) {
  Loopback wire;
  NetFaultSpec spec;
  spec.seed = 5;
  spec.dup = 1.0;
  spec.max_faults = 1;
  NetFaultTransport faulty(spec, std::move(wire.a));

  ASSERT_TRUE(faulty.write_line("RESULT 7 payload"));
  std::string line;
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "RESULT 7 payload");
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "RESULT 7 payload");
  EXPECT_EQ(faulty.report().duplicated, 1u);
}

TEST(NetFaultTransport, TruncateTearsTheLineAndClosesTheWire) {
  Loopback wire;
  NetFaultSpec spec;
  spec.seed = 5;
  spec.trunc = 1.0;
  spec.max_faults = 1;
  NetFaultTransport faulty(spec, std::move(wire.a));

  // The torn write fails from the sender's point of view (the wire died
  // mid-line), and the receiver must never see a parseable RESULT.
  EXPECT_FALSE(faulty.write_line("RESULT 3 half-written-payload"));
  EXPECT_TRUE(faulty.is_closed());
  EXPECT_EQ(faulty.report().truncated, 1u);
  std::string line;
  EXPECT_EQ(wire.b->read_line(&line), ReadResult::kClosed);
}

TEST(NetFaultTransport, DisconnectCadenceClosesEveryNthLine) {
  Loopback wire;
  NetFaultSpec spec;
  spec.disconnect_every = 2;
  NetFaultTransport faulty(spec, std::move(wire.a));

  ASSERT_TRUE(faulty.write_line("RESULT 0 a"));
  (void)faulty.write_line("RESULT 1 b");  // delivered, then the wire closes
  EXPECT_TRUE(faulty.is_closed());
  EXPECT_EQ(faulty.report().disconnects, 1u);
  std::string line;
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "RESULT 0 a");
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "RESULT 1 b");
  EXPECT_EQ(wire.b->read_line(&line), ReadResult::kClosed);

  // rebind() continues the schedule on a fresh wire: the cadence counter
  // is NOT reset by the reconnect.
  Loopback wire2;
  faulty.rebind(std::move(wire2.a));
  EXPECT_FALSE(faulty.is_closed());
  ASSERT_TRUE(faulty.write_line("RESULT 2 c"));
  (void)faulty.write_line("RESULT 3 d");
  EXPECT_TRUE(faulty.is_closed());
  EXPECT_EQ(faulty.report().disconnects, 2u);
}

TEST(NetFaultTransport, HandshakeAndShutdownVerbsAreExempt) {
  Loopback wire;
  NetFaultSpec spec;
  spec.seed = 3;
  spec.drop = 1.0;  // every impairable line vanishes, no cap
  NetFaultTransport faulty(spec, std::move(wire.a));

  ASSERT_TRUE(faulty.write_line("HELLO 42 100 0 1"));
  ASSERT_TRUE(faulty.write_line("LEASE 0"));   // dropped
  ASSERT_TRUE(faulty.write_line("RESULT 0 x")); // dropped
  ASSERT_TRUE(faulty.write_line("BYE 2"));
  ASSERT_TRUE(faulty.write_line("STOP"));
  std::string line;
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "HELLO 42 100 0 1");
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "BYE 2");
  ASSERT_EQ(wire.b->read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "STOP");
  EXPECT_EQ(faulty.report().dropped, 2u);
}

TEST(NetFaultTransport, InboundFaultsApplyOnReadToo) {
  Loopback wire;
  NetFaultSpec spec;
  spec.seed = 5;
  spec.drop = 1.0;
  spec.max_faults = 1;
  NetFaultTransport faulty(spec, std::move(wire.b));

  ASSERT_TRUE(wire.a->write_line("LEASE 0"));  // swallowed on the way in
  ASSERT_TRUE(wire.a->write_line("LEASE 1"));
  std::string line;
  ASSERT_EQ(faulty.read_line(&line), ReadResult::kLine);
  EXPECT_EQ(line, "LEASE 1");
  EXPECT_EQ(faulty.report().dropped, 1u);
}

TEST(NetFaultTransport, SameSeedSameSchedule) {
  const auto run = [](std::uint64_t seed) {
    Loopback wire;
    NetFaultSpec spec;
    spec.seed = seed;
    spec.drop = 0.4;
    spec.dup = 0.3;
    NetFaultTransport faulty(spec, std::move(wire.a));
    for (int i = 0; i < 24; ++i) {
      (void)faulty.write_line("RESULT " + std::to_string(i) + " x");
    }
    faulty.close();
    std::vector<std::string> delivered;
    ReadResult r = ReadResult::kLine;
    while (r != ReadResult::kClosed) r = wire.b->drain(&delivered);
    return std::make_pair(delivered, faulty.report());
  };
  const auto [lines1, report1] = run(99);
  const auto [lines2, report2] = run(99);
  EXPECT_EQ(lines1, lines2);
  EXPECT_EQ(report1.dropped, report2.dropped);
  EXPECT_EQ(report1.duplicated, report2.duplicated);
  EXPECT_GT(report1.dropped, 0u);
  EXPECT_GT(report1.duplicated, 0u);
}

}  // namespace
}  // namespace netsample
