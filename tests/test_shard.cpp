// The sharded-sweep runtime (shard::): line-protocol round-trips, the
// SweepSpec wire codec, journal-key parity between the grid helpers and the
// threaded ParallelRunner, and the coordinator/worker determinism contract —
// a W-worker multi-process sweep (fork-only workers over a shared mmap'd
// TraceStore) is bit-identical to the threaded --jobs sweep at any W,
// including when a worker dies mid-sweep and its leases are reassigned.
#include "shard/coordinator.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exper/journal.h"
#include "exper/parallel.h"
#include "obs/metrics.h"
#include "shard/grid.h"
#include "shard/protocol.h"
#include "shard/store.h"
#include "shard/worker.h"
#include "synth/presets.h"
#include "trace/summary.h"

namespace netsample::shard {
namespace {

// PID-suffixed so parallel ctest processes (one per discovered test) never
// race on the same file — the store writer stages through "<path>.tmp".
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

const trace::Trace& shared_trace() {
  static const trace::Trace t =
      synth::TraceModel(synth::sdsc_minutes_config(0.5, 23)).generate();
  return t;
}

struct Fixture {
  core::BinnedTraceCache cache;
  double mean_iat;
  std::string store_path;

  Fixture()
      : cache(shared_trace().view()),
        mean_iat(trace::summarize_population(shared_trace().view())
                     .interarrival.mean),
        store_path(temp_path("netsample_shard_fixture.nstore")) {
    std::filesystem::remove(store_path);
    const double mean_size =
        trace::summarize_population(shared_trace().view()).packet_size.mean;
    const Status st =
        write_trace_store(store_path, cache, mean_iat, mean_size);
    EXPECT_TRUE(st.is_ok()) << st.to_string();
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// A small 4-cell spec the coordinator tests share.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.targets = {core::Target::kPacketSize};
  spec.methods = {core::Method::kSystematicCount, core::Method::kSimpleRandom};
  spec.granularities = {8, 64};
  spec.replications = 2;
  spec.base_seed = 7;
  return spec;
}

void expect_metrics_exact(const core::DisparityMetrics& a,
                          const core::DisparityMetrics& b) {
  EXPECT_EQ(a.chi2, b.chi2);
  EXPECT_EQ(a.dof, b.dof);
  EXPECT_EQ(a.significance, b.significance);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.rcost, b.rcost);
  EXPECT_EQ(a.x2, b.x2);
  EXPECT_EQ(a.avg_norm_dev, b.avg_norm_dev);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.sample_n, b.sample_n);
  EXPECT_EQ(a.population_n, b.population_n);
}

/// The threaded reference: the exact replications ParallelRunner computes
/// for `spec` over the in-memory (non-mapped) population.
exper::RunReport threaded_reference(const SweepSpec& spec, int jobs) {
  const auto& f = fixture();
  const auto grid =
      build_grid(spec, shared_trace().view(), f.mean_iat, &f.cache);
  exper::ParallelRunner runner(jobs);
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kSkip;
  return runner.run(grid, spec.base_seed, opts);
}

void expect_matches_reference(const ShardReport& got,
                              const exper::RunReport& want) {
  ASSERT_EQ(got.cells.size(), want.cells.size());
  for (std::size_t i = 0; i < want.cells.size(); ++i) {
    ASSERT_TRUE(got.cells[i].status.is_ok())
        << "cell " << i << ": " << got.cells[i].status.to_string();
    const auto& reps = want.cells[i].result.replications;
    ASSERT_EQ(got.cells[i].replications.size(), reps.size()) << "cell " << i;
    for (std::size_t r = 0; r < reps.size(); ++r) {
      expect_metrics_exact(got.cells[i].replications[r], reps[r]);
    }
  }
}

// ---------------------------------------------------------------------------
// Protocol.

TEST(ShardProtocol, RoundTripsEveryMessageType) {
  std::vector<Message> cases;
  Message m;
  m.type = MessageType::kSpec;
  m.text = encode_sweep_spec(small_spec());
  cases.push_back(m);
  m = Message{};
  m.type = MessageType::kLease;
  m.index = 42;
  cases.push_back(m);
  m = Message{};
  m.type = MessageType::kStop;
  cases.push_back(m);
  m = Message{};
  m.type = MessageType::kHello;
  m.pid = 1234;
  m.packets = 99;
  m.cache_builds = 0;
  m.cache_maps = 1;
  cases.push_back(m);
  m = Message{};
  m.type = MessageType::kResult;
  m.index = 3;
  m.text = "[{0x1p+0,...}]";
  cases.push_back(m);
  m = Message{};
  m.type = MessageType::kFail;
  m.index = 5;
  m.code = StatusCode::kDeadlineExceeded;
  m.text = "watchdog";
  cases.push_back(m);
  m = Message{};
  m.type = MessageType::kBye;
  m.cells = 17;
  cases.push_back(m);
  m = Message{};
  m.type = MessageType::kPing;
  m.index = 8;  // heartbeat sequence number rides the index field
  cases.push_back(m);
  m = Message{};
  m.type = MessageType::kPong;
  m.index = 8;
  cases.push_back(m);

  for (const auto& original : cases) {
    Message parsed;
    ASSERT_TRUE(parse_message(format_message(original), &parsed))
        << format_message(original);
    EXPECT_EQ(parsed.type, original.type);
    EXPECT_EQ(parsed.index, original.index);
    EXPECT_EQ(parsed.code, original.code);
    EXPECT_EQ(parsed.pid, original.pid);
    EXPECT_EQ(parsed.packets, original.packets);
    EXPECT_EQ(parsed.cache_builds, original.cache_builds);
    EXPECT_EQ(parsed.cache_maps, original.cache_maps);
    EXPECT_EQ(parsed.cells, original.cells);
    EXPECT_EQ(parsed.text, original.text);
  }
}

TEST(ShardProtocol, RejectsMalformedLines) {
  Message m;
  EXPECT_FALSE(parse_message("", &m));
  EXPECT_FALSE(parse_message("LEASE ", &m));
  EXPECT_FALSE(parse_message("LEASE 5x", &m));
  EXPECT_FALSE(parse_message("LEASE 5 6", &m));
  EXPECT_FALSE(parse_message("RESULT 3", &m));
  EXPECT_FALSE(parse_message("RESULT 3 ", &m));
  EXPECT_FALSE(parse_message("FAIL 1 99 too big a code", &m));
  EXPECT_FALSE(parse_message("HELLO pid=1", &m));
  EXPECT_FALSE(parse_message("SPEC ", &m));
  EXPECT_FALSE(parse_message("NONSENSE 1", &m));
  EXPECT_FALSE(parse_message("PING", &m));
  EXPECT_FALSE(parse_message("PING ", &m));
  EXPECT_FALSE(parse_message("PING x", &m));
  EXPECT_FALSE(parse_message("PING 1 2", &m));
  EXPECT_FALSE(parse_message("PONG 1 2", &m));
  // FAIL with an empty message is legal (some exceptions carry none).
  EXPECT_TRUE(parse_message("FAIL 1 4 ", &m));
  EXPECT_EQ(m.type, MessageType::kFail);
  EXPECT_TRUE(m.text.empty());
}

// ---------------------------------------------------------------------------
// Spec codec.

TEST(ShardGrid, SweepSpecCodecRoundTrips) {
  const SweepSpec original = default_sweep_spec();
  SweepSpec decoded;
  ASSERT_TRUE(decode_sweep_spec(encode_sweep_spec(original), &decoded));
  EXPECT_EQ(decoded.targets, original.targets);
  EXPECT_EQ(decoded.methods, original.methods);
  EXPECT_EQ(decoded.granularities, original.granularities);
  EXPECT_EQ(decoded.replications, original.replications);
  EXPECT_EQ(decoded.base_seed, original.base_seed);
  EXPECT_EQ(encode_sweep_spec(decoded), encode_sweep_spec(original));
}

TEST(ShardGrid, SweepSpecDecoderIsStrict) {
  SweepSpec spec;
  const std::string good = encode_sweep_spec(small_spec());
  ASSERT_TRUE(decode_sweep_spec(good, &spec));
  EXPECT_FALSE(decode_sweep_spec("", &spec));
  EXPECT_FALSE(decode_sweep_spec("v=2;" + good.substr(4), &spec));
  EXPECT_FALSE(decode_sweep_spec(good + ";bogus=1", &spec));
  EXPECT_FALSE(decode_sweep_spec(
      "v=1;seed=7;reps=0;targets=size;methods=random;k=8", &spec));
  EXPECT_FALSE(decode_sweep_spec(
      "v=1;seed=7;reps=2;targets=size;methods=random;k=", &spec));
  EXPECT_FALSE(decode_sweep_spec(
      "v=1;seed=7;reps=2;targets=size;methods=pigeon;k=8", &spec));
  EXPECT_FALSE(
      decode_sweep_spec("v=1;seed=7;reps=2;targets=size;k=8", &spec));
}

TEST(ShardGrid, FlowSweepSpecCodecRoundTrips) {
  SweepSpec original;
  original.workload = Workload::kFlow;
  original.targets = {core::Target::kPacketSize};
  original.methods = {core::Method::kSystematicCount,
                      core::Method::kSimpleRandom};
  original.granularities = {10, 100, 1000};
  original.replications = 3;
  original.base_seed = 99;
  original.estimators = {flow::Estimator::kTailRescale, flow::Estimator::kEm};
  original.flow.idle_timeout_usec = 15'000'000;
  original.flow.capacity = 4096;
  original.flow.em_iters = 120;

  const std::string wire = encode_sweep_spec(original);
  SweepSpec decoded;
  ASSERT_TRUE(decode_sweep_spec(wire, &decoded)) << wire;
  EXPECT_EQ(decoded.workload, Workload::kFlow);
  EXPECT_EQ(decoded.methods, original.methods);
  EXPECT_EQ(decoded.granularities, original.granularities);
  EXPECT_EQ(decoded.replications, original.replications);
  EXPECT_EQ(decoded.base_seed, original.base_seed);
  EXPECT_EQ(decoded.estimators, original.estimators);
  EXPECT_EQ(decoded.flow, original.flow);
  EXPECT_EQ(decoded.cell_count(), original.cell_count());
  EXPECT_EQ(encode_sweep_spec(decoded), wire);

  // A packet spec must not grow flow fields on the wire — old workers keep
  // decoding new coordinators' packet sweeps.
  const std::string packet_wire = encode_sweep_spec(small_spec());
  EXPECT_EQ(packet_wire.find("workload="), std::string::npos);
  EXPECT_EQ(packet_wire.find("est="), std::string::npos);

  // grid_estimator maps task index -> estimator (outermost axis).
  const std::size_t inner =
      original.methods.size() * original.granularities.size();
  EXPECT_EQ(grid_estimator(original, 0), flow::Estimator::kTailRescale);
  EXPECT_EQ(grid_estimator(original, inner - 1),
            flow::Estimator::kTailRescale);
  EXPECT_EQ(grid_estimator(original, inner), flow::Estimator::kEm);
  EXPECT_THROW((void)grid_estimator(original, 2 * inner),
               std::invalid_argument);
  EXPECT_THROW((void)grid_estimator(small_spec(), 0), std::invalid_argument);
}

TEST(ShardGrid, FlowSweepSpecDecoderIsStrict) {
  SweepSpec spec;
  const std::string base =
      "v=1;seed=7;reps=2;targets=size;methods=random;k=8";
  // est without workload=flow: rejected.
  EXPECT_FALSE(decode_sweep_spec(base + ";est=em", &spec));
  EXPECT_FALSE(decode_sweep_spec(base + ";ftimeout=1000", &spec));
  // flow workload without estimators: rejected.
  EXPECT_FALSE(decode_sweep_spec(base + ";workload=flow", &spec));
  EXPECT_FALSE(decode_sweep_spec(base + ";workload=flow;est=", &spec));
  // Unknown estimator token / workload name: rejected.
  EXPECT_FALSE(
      decode_sweep_spec(base + ";workload=flow;est=magic", &spec));
  EXPECT_FALSE(decode_sweep_spec(base + ";workload=stream;est=em", &spec));
  // Out-of-range parameters: rejected.
  EXPECT_FALSE(decode_sweep_spec(
      base + ";workload=flow;est=em;ftimeout=0", &spec));
  EXPECT_FALSE(decode_sweep_spec(
      base + ";workload=flow;est=em;emiters=0", &spec));
  // The full well-formed flow line is accepted.
  EXPECT_TRUE(decode_sweep_spec(
      base + ";workload=flow;est=rescale,em;ftimeout=30000000;fcap=0;"
             "emiters=60",
      &spec));
  EXPECT_EQ(spec.estimators.size(), 2u);
}

TEST(ShardGrid, JournalKeysMatchWhatParallelRunnerWrites) {
  const auto& f = fixture();
  const SweepSpec spec = small_spec();
  const auto grid =
      build_grid(spec, shared_trace().view(), f.mean_iat, &f.cache);

  const std::string path = temp_path("netsample_shard_keys.jsonl");
  std::filesystem::remove(path);
  auto journal = exper::CheckpointJournal::open(path);
  ASSERT_TRUE(journal.has_value());
  exper::ParallelRunner runner(1);
  exper::RunOptions opts;
  opts.journal = &*journal;
  const auto report = runner.run(grid, spec.base_seed, opts);
  ASSERT_TRUE(report.all_ok());

  // Every grid key resolves in the journal the runner just wrote, and the
  // journaled replications are the cell's replications — key parity is what
  // lets the coordinator and the threaded path share one commit log.
  ASSERT_EQ(journal->size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto* reps = journal->find(grid_journal_key(grid[i], spec.base_seed));
    ASSERT_NE(reps, nullptr) << "cell " << i;
    ASSERT_EQ(reps->size(), report.cells[i].result.replications.size());
    for (std::size_t r = 0; r < reps->size(); ++r) {
      expect_metrics_exact((*reps)[r], report.cells[i].result.replications[r]);
    }
  }
}

// ---------------------------------------------------------------------------
// Worker over in-memory FILE*s (no fork): handshake, lease, stop.

TEST(ShardWorker, SpeaksTheProtocolOverPipes) {
  const auto& f = fixture();
  const SweepSpec spec = small_spec();

  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  Message spec_msg;
  spec_msg.type = MessageType::kSpec;
  spec_msg.text = encode_sweep_spec(spec);
  const std::string script = format_message(spec_msg) + "\nLEASE 0\nSTOP\n";
  std::fwrite(script.data(), 1, script.size(), in);
  std::rewind(in);

  WorkerOptions wopts;
  wopts.store_path = f.store_path;
  const Status st = run_worker(wopts, in, out);
  ASSERT_TRUE(st.is_ok()) << st.to_string();

  std::rewind(out);
  std::vector<std::string> lines;
  char buf[1 << 16];
  while (std::fgets(buf, sizeof buf, out) != nullptr) {
    std::string line(buf);
    while (!line.empty() && line.back() == '\n') line.pop_back();
    lines.push_back(line);
  }
  std::fclose(in);
  std::fclose(out);

  ASSERT_EQ(lines.size(), 3u);
  Message hello, result, bye;
  ASSERT_TRUE(parse_message(lines[0], &hello));
  EXPECT_EQ(hello.type, MessageType::kHello);
  EXPECT_EQ(hello.packets, shared_trace().size());
  EXPECT_EQ(hello.cache_builds, 0u);  // mapped, never rebuilt
  ASSERT_TRUE(parse_message(lines[1], &result));
  ASSERT_EQ(result.type, MessageType::kResult) << lines[1];
  EXPECT_EQ(result.index, 0u);
  ASSERT_TRUE(parse_message(lines[2], &bye));
  EXPECT_EQ(bye.type, MessageType::kBye);
  EXPECT_EQ(bye.cells, 1u);

  // The RESULT payload decodes to exactly what the threaded path computes
  // for the same cell.
  std::vector<core::DisparityMetrics> reps;
  ASSERT_TRUE(exper::decode_replications(result.text, &reps));
  const auto want = threaded_reference(spec, 1);
  ASSERT_EQ(reps.size(), want.cells[0].result.replications.size());
  for (std::size_t r = 0; r < reps.size(); ++r) {
    expect_metrics_exact(reps[r], want.cells[0].result.replications[r]);
  }
}

TEST(ShardWorker, LeaseOutOfRangeFailsTheCellNotTheWorker) {
  const auto& f = fixture();
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  const std::string script = "LEASE 999\nSTOP\n";  // before any SPEC
  std::fwrite(script.data(), 1, script.size(), in);
  std::rewind(in);
  WorkerOptions wopts;
  wopts.store_path = f.store_path;
  ASSERT_TRUE(run_worker(wopts, in, out).is_ok());
  std::rewind(out);
  char buf[4096];
  ASSERT_NE(std::fgets(buf, sizeof buf, out), nullptr);  // HELLO
  ASSERT_NE(std::fgets(buf, sizeof buf, out), nullptr);  // FAIL
  Message fail;
  std::string line(buf);
  while (!line.empty() && line.back() == '\n') line.pop_back();
  ASSERT_TRUE(parse_message(line, &fail)) << line;
  EXPECT_EQ(fail.type, MessageType::kFail);
  EXPECT_EQ(fail.code, StatusCode::kInvalidArgument);
  std::fclose(in);
  std::fclose(out);
}

// ---------------------------------------------------------------------------
// Coordinator: multi-process bit-identity and failure drills.

TEST(ShardCoordinator, BitIdenticalToThreadedRunAtEveryWorkerCount) {
  const auto& f = fixture();
  const SweepSpec spec = small_spec();
  const auto want = threaded_reference(spec, 2);
  ASSERT_TRUE(want.all_ok());
  for (const int workers : {1, 2, 4}) {
    CoordinatorOptions opts;
    opts.workers = workers;
    opts.store_path = f.store_path;
    auto got = run_sharded_sweep(spec, opts);
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    expect_matches_reference(*got, want);
    EXPECT_EQ(got->worker_cache_builds, 0u) << "W=" << workers;
    EXPECT_EQ(got->workers_spawned, static_cast<std::uint64_t>(workers));
    EXPECT_EQ(got->workers_died, 0u);
  }
}

TEST(ShardCoordinator, WorkerDeathMidSweepReassignsAndStaysBitIdentical) {
  const auto& f = fixture();
  const SweepSpec spec = small_spec();
  const auto want = threaded_reference(spec, 1);
  CoordinatorOptions opts;
  opts.workers = 2;
  opts.store_path = f.store_path;
  opts.first_worker_die_after = 1;  // dies after its first RESULT
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  expect_matches_reference(*got, want);
  EXPECT_EQ(got->workers_died, 1u);
  EXPECT_GE(got->workers_spawned, 3u);  // 2 initial + >= 1 respawn
  EXPECT_GE(got->reassignments, 1u);
}

TEST(ShardCoordinator, ChaosSigkillReassignsAndStaysBitIdentical) {
  const auto& f = fixture();
  const SweepSpec spec = small_spec();
  const auto want = threaded_reference(spec, 1);
  CoordinatorOptions opts;
  opts.workers = 2;
  opts.store_path = f.store_path;
  opts.chaos_kill_after = 1;
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  expect_matches_reference(*got, want);
  EXPECT_EQ(got->workers_killed, 1u);
  // Whether the kill registers as an unexpected death is racy on a grid
  // this small: the victim's RESULT lines may already sit in the pipe, in
  // which case its leases drain normally and the EOF is reaped during
  // orderly shutdown. Deterministic death accounting is pinned by the
  // first_worker_die_after tests; here the invariant is convergence.
  EXPECT_LE(got->workers_died, 1u);
}

TEST(ShardCoordinator, SingleWorkerDeathRespawnsAndFinishes) {
  const auto& f = fixture();
  const SweepSpec spec = small_spec();
  const auto want = threaded_reference(spec, 1);
  CoordinatorOptions opts;
  opts.workers = 1;
  opts.store_path = f.store_path;
  opts.first_worker_die_after = 1;
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  expect_matches_reference(*got, want);
  EXPECT_EQ(got->workers_died, 1u);
}

TEST(ShardCoordinator, RespawnBudgetExhaustionQuarantinesRemainingCells) {
  const auto& f = fixture();
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts;
  opts.workers = 1;
  opts.store_path = f.store_path;
  opts.first_worker_die_after = 1;
  opts.max_respawns = 0;
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(got->ok_count(), 1u);  // the one cell completed before the death
  EXPECT_FALSE(got->all_ok());
  EXPECT_EQ(got->first_failure().code(), StatusCode::kInternal);
}

TEST(ShardCoordinator, JournalMatchesThreadedJournalByteForByte) {
  const auto& f = fixture();
  const SweepSpec spec = small_spec();
  const auto grid =
      build_grid(spec, shared_trace().view(), f.mean_iat, &f.cache);

  const std::string threaded_path = temp_path("netsample_shard_jt.jsonl");
  const std::string sharded_path = temp_path("netsample_shard_js.jsonl");
  std::filesystem::remove(threaded_path);
  std::filesystem::remove(sharded_path);
  {
    auto j = exper::CheckpointJournal::open(threaded_path);
    ASSERT_TRUE(j.has_value());
    exper::ParallelRunner runner(2);
    exper::RunOptions ropts;
    ropts.journal = &*j;
    ASSERT_TRUE(runner.run(grid, spec.base_seed, ropts).all_ok());
  }
  {
    auto j = exper::CheckpointJournal::open(sharded_path);
    ASSERT_TRUE(j.has_value());
    CoordinatorOptions opts;
    opts.workers = 2;
    opts.store_path = f.store_path;
    opts.journal = &*j;
    auto got = run_sharded_sweep(spec, opts);
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(got->all_ok());
  }
  const auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string a = slurp(threaded_path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(sharded_path));
}

TEST(ShardCoordinator, FullyJournaledSweepSpawnsNoWorkers) {
  const auto& f = fixture();
  const SweepSpec spec = small_spec();
  const std::string path = temp_path("netsample_shard_replay.jsonl");
  std::filesystem::remove(path);
  {
    auto j = exper::CheckpointJournal::open(path);
    ASSERT_TRUE(j.has_value());
    CoordinatorOptions opts;
    opts.workers = 2;
    opts.store_path = f.store_path;
    opts.journal = &*j;
    ASSERT_TRUE(run_sharded_sweep(spec, opts).has_value());
  }
  auto j = exper::CheckpointJournal::open(path);
  ASSERT_TRUE(j.has_value());
  CoordinatorOptions opts;
  opts.workers = 2;
  opts.store_path = f.store_path;
  opts.journal = &*j;
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->all_ok());
  EXPECT_EQ(got->from_journal_count(), got->cells.size());
  EXPECT_EQ(got->workers_spawned, 0u);
  EXPECT_EQ(got->leases_granted, 0u);
  expect_matches_reference(*got, threaded_reference(spec, 1));
}

TEST(ShardCoordinator, RejectsZeroWorkers) {
  CoordinatorOptions opts;
  opts.workers = 0;
  opts.store_path = fixture().store_path;
  auto got = run_sharded_sweep(small_spec(), opts);
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardCoordinator, InvalidStoreSurfacesDataLossBeforeSpawning) {
  const std::string path = temp_path("netsample_shard_badstore.nstore");
  std::ofstream(path, std::ios::binary) << "not a store at all";
  CoordinatorOptions opts;
  opts.workers = 2;
  opts.store_path = path;
  auto got = run_sharded_sweep(small_spec(), opts);
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Socket transport + the network-failure model. Every drill below must end
// in the same bits as the threaded reference: the failure model recovers
// work, it never re-derives it.

CoordinatorOptions socket_opts() {
  CoordinatorOptions opts;
  opts.workers = 2;
  opts.store_path = fixture().store_path;
  opts.transport = TransportKind::kSocket;
  return opts;
}

TEST(ShardCoordinator, SocketBitIdenticalToThreadedRunAtEveryWorkerCount) {
  const SweepSpec spec = small_spec();
  const auto want = threaded_reference(spec, 2);
  ASSERT_TRUE(want.all_ok());
  for (const int workers : {1, 2, 4}) {
    CoordinatorOptions opts = socket_opts();
    opts.workers = workers;
    auto got = run_sharded_sweep(spec, opts);
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    expect_matches_reference(*got, want);
    EXPECT_EQ(got->worker_cache_builds, 0u) << "W=" << workers;
    EXPECT_EQ(got->workers_died, 0u);
  }
}

TEST(ShardCoordinator, SocketWorkerDeathReassignsAndStaysBitIdentical) {
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts = socket_opts();
  opts.first_worker_die_after = 1;
  opts.reconnect_window_s = 2.0;  // the dead pid is reaped, not waited for
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  expect_matches_reference(*got, threaded_reference(spec, 1));
  EXPECT_EQ(got->workers_died, 1u);
  EXPECT_GE(got->reassignments, 1u);
}

TEST(ShardCoordinator, CleanDepartureIsLoggedAsDepartureNotDeath) {
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts;
  opts.workers = 2;
  opts.store_path = fixture().store_path;
  opts.first_worker_depart_after = 1;  // BYE after its first cell
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  expect_matches_reference(*got, threaded_reference(spec, 1));
  EXPECT_EQ(got->workers_departed, 1u);
  EXPECT_EQ(got->workers_died, 0u);
}

TEST(ShardCoordinator, TornResultKillsTheWorkerAndNeverCommitsPartialBytes) {
  // One truncated RESULT: the worker's wire tears mid-line. The strict
  // framing discards the torn prefix, the sender is treated as lost, the
  // cell is recomputed — and the journal must be byte-for-byte what a
  // clean threaded run writes.
  const auto& f = fixture();
  const SweepSpec spec = small_spec();
  const auto grid =
      build_grid(spec, shared_trace().view(), f.mean_iat, &f.cache);

  const std::string clean_path = temp_path("netsample_shard_torn_ref.jsonl");
  const std::string torn_path = temp_path("netsample_shard_torn.jsonl");
  std::filesystem::remove(clean_path);
  std::filesystem::remove(torn_path);
  {
    auto j = exper::CheckpointJournal::open(clean_path);
    ASSERT_TRUE(j.has_value());
    exper::ParallelRunner runner(2);
    exper::RunOptions ropts;
    ropts.journal = &*j;
    ASSERT_TRUE(runner.run(grid, spec.base_seed, ropts).all_ok());
  }
  {
    auto j = exper::CheckpointJournal::open(torn_path);
    ASSERT_TRUE(j.has_value());
    CoordinatorOptions opts = socket_opts();
    opts.journal = &*j;
    opts.reconnect_window_s = 2.0;
    opts.netfault = "seed=11,trunc=1,max-faults=1";  // exactly one torn line
    auto got = run_sharded_sweep(spec, opts);
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    ASSERT_TRUE(got->all_ok()) << got->first_failure().to_string();
    expect_matches_reference(*got, threaded_reference(spec, 1));
    EXPECT_GE(got->reassignments + got->reconnects, 1u);
  }
  const auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string clean = slurp(clean_path);
  ASSERT_FALSE(clean.empty());
  EXPECT_EQ(clean, slurp(torn_path));
}

TEST(ShardCoordinator, DroppedLeaseConvergesViaLeaseExpiry) {
  // The first impairable line the (single) worker sees is its first LEASE,
  // and it vanishes. Only the lease-expiry timer can recover the cell —
  // the wire is healthy, the worker simply never heard the grant.
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts;
  opts.workers = 1;
  opts.store_path = fixture().store_path;
  opts.netfault = "seed=2,drop=1,max-faults=1";
  opts.lease_timeout_s = 0.3;
  opts.heartbeat_interval_s = 0.05;  // PONGs lift the post-expiry suspension
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  ASSERT_TRUE(got->all_ok()) << got->first_failure().to_string();
  expect_matches_reference(*got, threaded_reference(spec, 1));
  EXPECT_GE(got->leases_expired, 1u);
  EXPECT_GE(got->pings_sent, 1u);
}

TEST(ShardCoordinator, DuplicatedResultsAreCommittedExactlyOnce) {
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts;
  opts.workers = 2;
  opts.store_path = fixture().store_path;
  opts.netfault = "seed=4,dup=1";  // every RESULT arrives twice
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  ASSERT_TRUE(got->all_ok()) << got->first_failure().to_string();
  // Byte-equality with the reference is the single-commit proof: a second
  // acceptance would have overwritten or doubled a cell's replications.
  expect_matches_reference(*got, threaded_reference(spec, 1));
}

TEST(ShardCoordinator, FlappingWireReconnectsAndConverges) {
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts = socket_opts();
  opts.reconnect_window_s = 5.0;
  opts.netfault = "seed=6,disconnect-every=3";  // the wire flaps constantly
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  ASSERT_TRUE(got->all_ok()) << got->first_failure().to_string();
  expect_matches_reference(*got, threaded_reference(spec, 1));
  EXPECT_GE(got->reconnects, 1u);
  EXPECT_EQ(got->workers_died, 0u);  // flapping is not dying
}

TEST(ShardCoordinator, SocketChaosSigkillReassignsAndStaysBitIdentical) {
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts = socket_opts();
  opts.chaos_kill_after = 1;
  opts.reconnect_window_s = 2.0;
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  expect_matches_reference(*got, threaded_reference(spec, 1));
  EXPECT_EQ(got->workers_killed, 1u);
  EXPECT_LE(got->workers_died, 1u);  // see ChaosSigkill above for the race
}

/// How many of five one-worker sweeps of small_spec() had a shutdown poll
/// sleep its whole timeout with the worker still unreaped. Counted, not
/// timed: a host too slow or loaded to reap within the timeout stalls the
/// odd sweep, while a poll that cannot wake on the exit stalls most.
int stalled_sweeps(TransportKind transport) {
  // Leaves obs disabled and zeroed, as test_obs.cpp's fixture does.
  struct ObsOn {
    ObsOn() { obs::set_enabled(true); }
    ~ObsOn() {
      obs::set_enabled(false);
      obs::registry().reset();
    }
  } obs_on;
  const obs::Counter& stalls = obs::registry().counter(
      "netsample_shard_shutdown_poll_timeouts_total",
      obs::Determinism::kNondeterministic);
  int stalled = 0;
  for (int i = 0; i < 5; ++i) {
    CoordinatorOptions opts;
    opts.workers = 1;
    opts.store_path = fixture().store_path;
    opts.transport = transport;
    const std::uint64_t before = stalls.value();
    auto got = run_sharded_sweep(small_spec(), opts);
    EXPECT_TRUE(got.has_value() && got->all_ok());
    if (stalls.value() != before) ++stalled;
  }
  return stalled;
}

// Shutdown wakes when the worker exits. A poll that watched only wires held
// just the listener (socket) or nothing (pipe) once the wire hit EOF, and
// slept its whole 50 ms timeout after the last RESULT of a sweep.
TEST(ShardCoordinator, SocketSweepReturnsWhenItsWorkerExits) {
  if (!obs::detail::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (NETSAMPLE_OBS=OFF)";
  }
  EXPECT_LE(stalled_sweeps(TransportKind::kSocket), 2);
}

TEST(ShardCoordinator, PipeSweepReturnsWhenItsWorkerExits) {
  if (!obs::detail::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (NETSAMPLE_OBS=OFF)";
  }
  EXPECT_LE(stalled_sweeps(TransportKind::kPipe), 2);
}

// A die/depart drill holds the scripted worker's peers back until it has
// left. With no respawn budget nothing else tops them up, so the sweep
// hangs unless the peers are granted the remaining cells after it leaves.
TEST(ShardCoordinator, DepartureWithoutRespawnsLetsThePeerFinish) {
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts;
  opts.workers = 2;
  opts.store_path = fixture().store_path;
  // Three of the four cells, so the peer's HELLO is usually handled (and
  // held back) before the BYE, and one reclaimed cell is left for it.
  opts.first_worker_depart_after = 3;
  opts.max_respawns = 0;
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  expect_matches_reference(*got, threaded_reference(spec, 1));
  EXPECT_EQ(got->workers_departed, 1u);
  EXPECT_EQ(got->workers_spawned, 2u);
}

TEST(ShardCoordinator, DeathWithoutRespawnsLetsThePeerFinish) {
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts;
  opts.workers = 2;
  opts.store_path = fixture().store_path;
  opts.first_worker_die_after = 1;
  opts.max_respawns = 0;
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  expect_matches_reference(*got, threaded_reference(spec, 1));
  EXPECT_EQ(got->workers_died, 1u);
  EXPECT_EQ(got->workers_spawned, 2u);
}

TEST(ShardCoordinator, SocketDeathWithoutRespawnsLetsThePeerFinish) {
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts = socket_opts();
  opts.first_worker_die_after = 1;
  opts.max_respawns = 0;
  opts.reconnect_window_s = 2.0;
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  expect_matches_reference(*got, threaded_reference(spec, 1));
  EXPECT_EQ(got->workers_died, 1u);
}

TEST(ShardCoordinator, SocketRespawnBudgetExhaustionFailsClosed) {
  const SweepSpec spec = small_spec();
  CoordinatorOptions opts = socket_opts();
  opts.workers = 1;
  opts.first_worker_die_after = 1;
  opts.max_respawns = 0;
  opts.reconnect_window_s = 1.0;
  auto got = run_sharded_sweep(spec, opts);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(got->ok_count(), 1u);
  EXPECT_FALSE(got->all_ok());
  EXPECT_EQ(got->first_failure().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace netsample::shard
