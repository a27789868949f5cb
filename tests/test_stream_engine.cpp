// The streaming scorer's determinism contract, pinned:
//
//  * bit-identity — a drain-mode Engine fed the batch runner's interval at
//    chunk sizes 1 / 64 / 4096 produces byte-identical phi (and identical
//    selected indices) to exper::run_cell on the BinnedTraceCache fast
//    path, for all five methods and both histogram targets;
//  * chunking independence — any two chunkings agree, including through
//    the SPSC pipeline;
//  * rolling windows — k=1 lanes score phi == 0 in every window (sample
//    equals population by construction), a window that covers the whole
//    stream reproduces drain mode, and windowed memory stays O(window);
//  * cancellation and argument validation unwind as specified;
//  * differential tier — stream::Engine against the per-packet engine it
//    replaced (tests/reference_engine.h), byte for byte: every method
//    (systematic/timer under both expiry policies) and a mixed lane set,
//    size / iat / both targets, drain, drain+stride, window, window+stride
//    and tumbling modes, chunk sizes 1 / 7 / 64 / 512 / 4096 and a random
//    chunking, three seeds, population overrides and collect_indices. Row
//    JSON, every score double, lane_indices(), packets() and
//    window_packets_peak() must all agree. It runs under whichever SIMD
//    variant NETSAMPLE_SIMD selects.
#include "stream/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sampler.h"
#include "core/samplers.h"
#include "exper/experiment.h"
#include "exper/runner.h"
#include "netsample/result.h"
#include "netsample/session.h"
#include "reference_engine.h"
#include "stream/pipeline.h"
#include "stream/source.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/status.h"

namespace netsample::stream {
namespace {

// One shared 2-minute synthetic trace: big enough that every method's
// sample has structure, small enough for chunk-size-1 sweeps.
exper::Experiment& experiment() {
  static exper::Experiment ex(23, 2.0);
  return ex;
}

exper::CellConfig cell_config(core::Method method, core::Target target) {
  auto& ex = experiment();
  exper::CellConfig cfg;
  cfg.method = method;
  cfg.target = target;
  cfg.granularity = 10;
  cfg.interval = ex.full();
  cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
  cfg.replications = 3;
  cfg.base_seed = 77;
  cfg.cache = &ex.binned_cache();
  return cfg;
}

void feed_in_chunks(Engine& engine, trace::TraceView view, std::size_t chunk) {
  const auto packets = view.packets();
  for (std::size_t i = 0; i < packets.size(); i += chunk) {
    engine.feed(packets.subspan(i, std::min(chunk, packets.size() - i)));
  }
}

constexpr core::Method kAllMethods[] = {
    core::Method::kSystematicCount, core::Method::kStratifiedCount,
    core::Method::kSimpleRandom, core::Method::kSystematicTimer,
    core::Method::kStratifiedTimer};
constexpr core::Target kBothTargets[] = {core::Target::kPacketSize,
                                         core::Target::kInterarrivalTime};

// ---------------------------------------------------------------------------
// Bit-identity against the batch fast path, at chunk sizes 1 / 64 / 4096.
// ---------------------------------------------------------------------------

TEST(StreamEngine, BitIdenticalToBatchCellAtAnyChunkSize) {
  for (const auto method : kAllMethods) {
    for (const auto target : kBothTargets) {
      const auto cfg = cell_config(method, target);
      const auto batch = exper::run_cell(cfg);
      ASSERT_EQ(batch.replications.size(), 3u);

      for (const std::size_t chunk : {std::size_t{1}, std::size_t{64},
                                      std::size_t{4096}}) {
        Engine engine(lanes_for_cell(cfg));
        feed_in_chunks(engine, cfg.interval, chunk);
        const auto final_score = engine.finish();
        ASSERT_EQ(final_score.lanes.size(), batch.replications.size())
            << core::method_name(method) << " chunk " << chunk;
        EXPECT_EQ(final_score.packets_seen, cfg.interval.size());
        for (std::size_t r = 0; r < batch.replications.size(); ++r) {
          const auto& stream_m = final_score.lanes[r].metrics;
          const auto& batch_m = batch.replications[r];
          // Exact double equality: the streaming path must reproduce the
          // batch scores bit-for-bit, not approximately.
          EXPECT_EQ(stream_m.phi, batch_m.phi)
              << core::method_name(method) << "/"
              << core::target_name(target) << " r" << r << " chunk " << chunk;
          EXPECT_EQ(stream_m.chi2, batch_m.chi2);
          EXPECT_EQ(stream_m.significance, batch_m.significance);
          EXPECT_EQ(stream_m.sample_n, batch_m.sample_n);
          EXPECT_EQ(stream_m.population_n, batch_m.population_n);
        }
      }
    }
  }
}

TEST(StreamEngine, SelectedIndicesMatchBatchSamplers) {
  for (const auto method : kAllMethods) {
    const auto cfg = cell_config(method, core::Target::kPacketSize);
    EngineOptions options;
    options.collect_indices = true;
    Engine engine(lanes_for_cell(cfg), options);
    feed_in_chunks(engine, cfg.interval, 64);
    (void)engine.finish();

    ASSERT_EQ(engine.lane_indices().size(), 3u);
    for (int r = 0; r < cfg.replications; ++r) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
      auto sampler = core::make_sampler(exper::replication_spec(cfg, r));
#pragma GCC diagnostic pop

      const auto want = core::draw_sample_indices(cfg.interval, *sampler);
      EXPECT_EQ(engine.lane_indices()[static_cast<std::size_t>(r)], want)
          << core::method_name(method) << " r" << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline: ring + producer thread change nothing.
// ---------------------------------------------------------------------------

TEST(StreamEngine, PipelineMatchesDirectFeed) {
  const auto cfg =
      cell_config(core::Method::kSystematicCount, core::Target::kPacketSize);

  Engine direct(lanes_for_cell(cfg));
  feed_in_chunks(direct, cfg.interval, 97);
  const auto direct_score = direct.finish();

  Engine piped(lanes_for_cell(cfg));
  TraceSource source(cfg.interval);
  PipelineOptions options;
  options.chunk_packets = 97;
  options.ring_capacity = 4;
  const auto report = run_pipeline(source, piped, options);
  ASSERT_TRUE(report.ok()) << report.status.to_string();
  EXPECT_EQ(report.packets, cfg.interval.size());
  const auto piped_score = piped.finish();

  ASSERT_EQ(piped_score.lanes.size(), direct_score.lanes.size());
  for (std::size_t i = 0; i < direct_score.lanes.size(); ++i) {
    EXPECT_EQ(piped_score.lanes[i].metrics.phi,
              direct_score.lanes[i].metrics.phi);
    EXPECT_EQ(piped_score.lanes[i].metrics.sample_n,
              direct_score.lanes[i].metrics.sample_n);
  }
}

TEST(StreamEngine, PipelineSurfacesCancellation) {
  const auto cfg =
      cell_config(core::Method::kSystematicCount, core::Target::kPacketSize);
  Engine engine(lanes_for_cell(cfg));
  TraceSource source(cfg.interval);
  util::CancelToken cancel;
  cancel.cancel();
  PipelineOptions options;
  options.cancel = &cancel;
  const auto report = run_pipeline(source, engine, options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kCancelled);
}

TEST(StreamEngine, FeedPollsCancelToken) {
  const auto cfg =
      cell_config(core::Method::kSystematicCount, core::Target::kPacketSize);
  util::CancelToken cancel;
  cancel.cancel();
  EngineOptions options;
  options.cancel = &cancel;
  Engine engine(lanes_for_cell(cfg), options);
  EXPECT_THROW(feed_in_chunks(engine, cfg.interval, 4096), StatusError);
}

// ---------------------------------------------------------------------------
// Rolling windows.
// ---------------------------------------------------------------------------

TEST(StreamEngine, AllSelectingLaneScoresZeroPhiInEveryWindow) {
  // k=1 systematic selects every packet, so each window's sample histogram
  // equals its population histogram and phi is exactly 0 — an oracle that
  // needs no independent reimplementation of the window arithmetic.
  auto& ex = experiment();
  exper::CellConfig cfg;
  cfg.method = core::Method::kSystematicCount;
  cfg.granularity = 1;
  cfg.interval = ex.full();
  cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
  cfg.replications = 1;
  cfg.base_seed = 5;

  for (const auto target : kBothTargets) {
    cfg.target = target;
    EngineOptions options;
    options.window = MicroDuration::from_seconds(10.0);
    options.stride = MicroDuration::from_seconds(10.0);
    Engine engine(lanes_for_cell(cfg), options);
    std::uint64_t snapshots = 0;
    std::uint64_t last_tick = 0;
    engine.on_snapshot([&](const WindowScore& w) {
      ++snapshots;
      EXPECT_EQ(w.tick, last_tick + 1);  // in order, none skipped
      last_tick = w.tick;
      EXPECT_FALSE(w.is_final);
      ASSERT_EQ(w.lanes.size(), 1u);
      EXPECT_EQ(w.lanes[0].metrics.phi, 0.0) << "tick " << w.tick;
      EXPECT_EQ(w.lanes[0].metrics.chi2, 0.0);
    });
    feed_in_chunks(engine, cfg.interval, 256);
    const auto final_score = engine.finish();
    EXPECT_TRUE(final_score.is_final);
    EXPECT_EQ(final_score.lanes[0].metrics.phi, 0.0);
    // A ~2-minute trace with a 10s stride must produce ~11 interior ticks.
    EXPECT_GE(snapshots, 9u);
    EXPECT_LE(snapshots, 13u);
  }
}

TEST(StreamEngine, WholeStreamWindowReproducesDrainMode) {
  const auto cfg =
      cell_config(core::Method::kStratifiedCount, core::Target::kPacketSize);

  Engine drain(lanes_for_cell(cfg));
  feed_in_chunks(drain, cfg.interval, 512);
  const auto drain_score = drain.finish();

  EngineOptions windowed_options;
  windowed_options.window = MicroDuration::from_seconds(3600.0);
  Engine windowed(lanes_for_cell(cfg), windowed_options);
  feed_in_chunks(windowed, cfg.interval, 512);
  const auto windowed_score = windowed.finish();

  ASSERT_EQ(windowed_score.lanes.size(), drain_score.lanes.size());
  for (std::size_t i = 0; i < drain_score.lanes.size(); ++i) {
    EXPECT_EQ(windowed_score.lanes[i].metrics.phi,
              drain_score.lanes[i].metrics.phi);
    EXPECT_EQ(windowed_score.lanes[i].metrics.sample_n,
              drain_score.lanes[i].metrics.sample_n);
  }
}

TEST(StreamEngine, WindowedMemoryIsBoundedDrainHoldsNothing) {
  const auto cfg =
      cell_config(core::Method::kSystematicCount, core::Target::kPacketSize);

  Engine drain(lanes_for_cell(cfg));
  feed_in_chunks(drain, cfg.interval, 1024);
  (void)drain.finish();
  EXPECT_EQ(drain.window_packets_peak(), 0u);  // drain mode holds no packets

  EngineOptions options;
  options.window = MicroDuration::from_seconds(5.0);
  options.stride = MicroDuration::from_seconds(5.0);
  Engine windowed(lanes_for_cell(cfg), options);
  feed_in_chunks(windowed, cfg.interval, 1024);
  (void)windowed.finish();
  EXPECT_GT(windowed.window_packets_peak(), 0u);
  // 2 minutes of packets, 5+5 second window+stride scope: the peak must be
  // a small fraction of the stream.
  EXPECT_LT(windowed.window_packets_peak(), cfg.interval.size() / 4);
}

TEST(StreamEngine, CurrentScoresWithoutConsuming) {
  const auto cfg =
      cell_config(core::Method::kSystematicCount, core::Target::kPacketSize);
  Engine engine(lanes_for_cell(cfg));
  const auto packets = cfg.interval.packets();
  engine.feed(packets.subspan(0, packets.size() / 2));
  const auto mid = engine.current();
  EXPECT_EQ(mid.packets_seen, packets.size() / 2);
  engine.feed(packets.subspan(packets.size() / 2));
  const auto final_score = engine.finish();
  EXPECT_EQ(final_score.packets_seen, packets.size());
  // current() at the midpoint scored a strict prefix: a different (smaller)
  // population than the final score.
  EXPECT_LT(mid.lanes[0].metrics.population_n,
            final_score.lanes[0].metrics.population_n);
}

// ---------------------------------------------------------------------------
// Validation and edge cases.
// ---------------------------------------------------------------------------

TEST(StreamEngine, EmptyStreamFinishesWithZeroedScore) {
  const auto cfg =
      cell_config(core::Method::kSystematicCount, core::Target::kPacketSize);
  Engine engine(lanes_for_cell(cfg));
  const auto final_score = engine.finish();
  // Nothing ever arrived: a zeroed final score with no lane rows (there is
  // no population to score against), not a crash or a fabricated result.
  EXPECT_TRUE(final_score.is_final);
  EXPECT_EQ(final_score.packets_seen, 0u);
  EXPECT_TRUE(final_score.lanes.empty());
  EXPECT_THROW((void)engine.finish(), std::logic_error);
}

TEST(StreamEngine, MoreThanMaxLanesThrows) {
  auto cfg = cell_config(core::Method::kSystematicCount,
                         core::Target::kPacketSize);
  cfg.granularity = 128;
  cfg.replications = static_cast<int>(Engine::kMaxLanes) + 1;
  EXPECT_THROW(Engine(lanes_for_cell(cfg)), std::invalid_argument);
}

TEST(StreamEngine, NegativeWindowThrows) {
  const auto cfg =
      cell_config(core::Method::kSystematicCount, core::Target::kPacketSize);
  EngineOptions options;
  options.window = MicroDuration{-1};
  EXPECT_THROW(Engine(lanes_for_cell(cfg), options), std::invalid_argument);
}

TEST(StreamEngine, TimeOrderViolationThrows) {
  const auto cfg =
      cell_config(core::Method::kSystematicCount, core::Target::kPacketSize);
  Engine engine(lanes_for_cell(cfg));
  std::vector<trace::PacketRecord> packets(2);
  packets[0].timestamp = MicroTime{2000};
  packets[0].size = 100;
  packets[1].timestamp = MicroTime{1000};  // runs backwards
  packets[1].size = 100;
  EXPECT_THROW(engine.feed(packets), std::invalid_argument);
}

TEST(StreamEngine, FeedAfterFinishThrows) {
  const auto cfg =
      cell_config(core::Method::kSystematicCount, core::Target::kPacketSize);
  Engine engine(lanes_for_cell(cfg));
  (void)engine.finish();
  std::vector<trace::PacketRecord> packets(1);
  packets[0].timestamp = MicroTime{1};
  EXPECT_THROW(engine.feed(packets), std::logic_error);
}

TEST(StreamEngine, PopulationOverrideReplacesIntervalSize) {
  auto cfg = cell_config(core::Method::kSimpleRandom,
                         core::Target::kPacketSize);
  const auto lanes = lanes_for_cell(cfg, 12345);
  for (const auto& lane : lanes) EXPECT_EQ(lane.spec.population, 12345u);
  const auto defaults = lanes_for_cell(cfg);
  for (const auto& lane : defaults) {
    EXPECT_EQ(lane.spec.population, cfg.interval.size());
  }
}

// ---------------------------------------------------------------------------
// Differential tier against the per-packet reference engine.
// ---------------------------------------------------------------------------

/// Bursty traffic: back-to-back packets, typical gaps, and idle gaps longer
/// than the windows below, so windows empty out, one packet crosses several
/// ticks, and equal timestamps straddle tick boundaries.
trace::Trace bursty_trace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<trace::PacketRecord> v(n);
  std::uint64_t t = 1'000'000 + rng.uniform_below(5000);
  for (auto& p : v) {
    p.timestamp = MicroTime{t};
    p.size = static_cast<std::uint16_t>(28 + rng.uniform_below(1473));
    const std::uint64_t roll = rng.uniform_below(100);
    if (roll < 25) {
      // burst: the next packet arrives in the same microsecond
    } else if (roll < 85) {
      t += rng.uniform_below(3000);
    } else if (roll < 97) {
      t += 3000 + rng.uniform_below(40000);
    } else {
      t += 200'000 + rng.uniform_below(900'000);  // idle: several windows
    }
  }
  return trace::Trace(std::move(v));
}

struct DiffMode {
  const char* name;
  std::int64_t window_usec;
  std::int64_t stride_usec;
};
constexpr DiffMode kDiffModes[] = {
    {"drain", 0, 0},
    {"drain+stride", 0, 110'000},
    {"window", 300'000, 0},
    {"window+stride", 300'000, 110'000},
    {"tumbling", 250'000, 250'000},
};

enum class DiffTargets { kSize, kIat, kBoth };
constexpr DiffTargets kDiffTargets[] = {DiffTargets::kSize, DiffTargets::kIat,
                                        DiffTargets::kBoth};

/// One lane-set shape: a method (with its timer expiry policy), or every
/// method at once (`mixed`), which gives one engine many distinct cursors.
struct DiffVariant {
  const char* name;
  core::Method method;
  core::ExpiryPolicy policy;
  bool mixed;
};

void PrintTo(const DiffVariant& v, std::ostream* os) { *os << v.name; }

std::vector<LaneSpec> diff_lanes(const DiffVariant& v, DiffTargets targets,
                                 const trace::Trace& t, std::uint64_t seed,
                                 std::uint64_t population_override) {
  std::vector<core::Method> methods{v.method};
  if (v.mixed) methods.assign(std::begin(kAllMethods), std::end(kAllMethods));
  exper::CellConfig cfg;
  cfg.granularity = 3 + seed % 11;
  cfg.interval = t.view();
  const auto packets = t.view().packets();
  cfg.mean_interarrival_usec =
      static_cast<double>(packets.back().timestamp.usec -
                          packets.front().timestamp.usec) /
      static_cast<double>(packets.size() - 1);
  cfg.replications = 3;
  cfg.base_seed = seed;
  std::vector<LaneSpec> lanes;
  for (const auto target : kBothTargets) {
    if (targets == DiffTargets::kSize && target != core::Target::kPacketSize) {
      continue;
    }
    if (targets == DiffTargets::kIat &&
        target != core::Target::kInterarrivalTime) {
      continue;
    }
    cfg.target = target;
    for (const auto method : methods) {
      cfg.method = method;
      for (auto& lane : lanes_for_cell(cfg, population_override)) {
        lane.spec.expiry_policy = v.policy;
        lane.label = std::string(core::target_name(target)) + "/" +
                     core::method_name(method) + "/" + lane.label;
        lanes.push_back(std::move(lane));
      }
    }
  }
  return lanes;
}

/// Everything an engine exposes after a run.
struct Observed {
  std::vector<std::string> rows;     // JSON rows, snapshots then final
  std::vector<WindowScore> scores;   // the same, for exact doubles
  std::vector<std::vector<std::size_t>> indices;
  std::uint64_t packets{0};
  std::uint64_t peak{0};
};

void record(const WindowScore& ws, Observed* obs) {
  for (const auto& cells : session_row_cells(ws)) {
    obs->rows.push_back(json_line(session_row_columns(), cells));
  }
  obs->scores.push_back(ws);
}

/// Chunk boundaries: fixed `size`, or (size == 0) random lengths 1..300.
std::vector<std::size_t> chunk_lengths(std::size_t n, std::size_t size,
                                       std::uint64_t seed) {
  std::vector<std::size_t> out;
  Rng rng(seed);
  for (std::size_t done = 0; done < n;) {
    const std::size_t len =
        size != 0 ? size
                  : 1 + static_cast<std::size_t>(rng.uniform_below(300));
    out.push_back(std::min(len, n - done));
    done += out.back();
  }
  return out;
}

template <typename E>
Observed run_engine(E& engine, const trace::Trace& t,
                    const std::vector<std::size_t>& chunks) {
  Observed obs;
  engine.on_snapshot([&](const WindowScore& ws) { record(ws, &obs); });
  const auto packets = t.view().packets();
  std::size_t at = 0;
  for (const std::size_t len : chunks) {
    engine.feed(packets.subspan(at, len));
    at += len;
  }
  record(engine.finish(), &obs);
  obs.indices = engine.lane_indices();
  obs.packets = engine.packets();
  obs.peak = engine.window_packets_peak();
  return obs;
}

void expect_same(const Observed& want, const Observed& got,
                 const std::string& where) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << where;
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    ASSERT_EQ(got.rows[i], want.rows[i]) << where << " row " << i;
  }
  ASSERT_EQ(got.scores.size(), want.scores.size()) << where;
  for (std::size_t i = 0; i < want.scores.size(); ++i) {
    const auto& a = want.scores[i];
    const auto& b = got.scores[i];
    ASSERT_EQ(b.window_start.usec, a.window_start.usec) << where;
    ASSERT_EQ(b.window_end.usec, a.window_end.usec) << where;
    ASSERT_EQ(b.packets_seen, a.packets_seen) << where;
    ASSERT_EQ(b.lanes.size(), a.lanes.size()) << where;
    for (std::size_t l = 0; l < a.lanes.size(); ++l) {
      const auto& ma = a.lanes[l].metrics;
      const auto& mb = b.lanes[l].metrics;
      ASSERT_EQ(mb.phi, ma.phi) << where << " score " << i << " lane " << l;
      ASSERT_EQ(mb.chi2, ma.chi2) << where;
      ASSERT_EQ(mb.significance, ma.significance) << where;
      ASSERT_EQ(mb.sample_n, ma.sample_n) << where;
      ASSERT_EQ(mb.population_n, ma.population_n) << where;
    }
  }
  ASSERT_EQ(got.indices, want.indices) << where;
  ASSERT_EQ(got.packets, want.packets) << where;
  ASSERT_EQ(got.peak, want.peak) << where;
}

class EngineDifferential : public ::testing::TestWithParam<DiffVariant> {};

TEST_P(EngineDifferential, MatchesPerPacketReferenceAtEveryChunking) {
  const DiffVariant& v = GetParam();
  constexpr std::size_t kPackets = 2000;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const auto t = bursty_trace(seed, kPackets);
    // Seed 12 declares half the stream as simple random's population (the
    // sample completes early and later packets are never offered a draw),
    // seed 13 three times it; seed 11 keeps the interval's own size.
    const std::uint64_t population =
        seed == 12 ? kPackets / 2 : seed == 13 ? 3 * kPackets : 0;
    for (const auto targets : kDiffTargets) {
      const auto lanes = diff_lanes(v, targets, t, seed, population);
      for (const auto& mode : kDiffModes) {
        EngineOptions options;
        options.window = MicroDuration{mode.window_usec};
        options.stride = MicroDuration{mode.stride_usec};
        options.collect_indices = seed != 12;
        reference::ReferenceEngine oracle(lanes, options);
        const Observed want =
            run_engine(oracle, t, chunk_lengths(kPackets, 64, seed));
        for (const std::size_t size : {std::size_t{1}, std::size_t{7},
                                       std::size_t{64}, std::size_t{512},
                                       std::size_t{4096}, std::size_t{0}}) {
          Engine engine(lanes, options);
          const Observed got =
              run_engine(engine, t, chunk_lengths(kPackets, size, seed));
          expect_same(want, got,
                      std::string(v.name) + " seed " + std::to_string(seed) +
                          " targets " +
                          std::to_string(static_cast<int>(targets)) + " " +
                          mode.name + " chunk " + std::to_string(size));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, EngineDifferential,
    ::testing::Values(
        DiffVariant{"systematic_count", core::Method::kSystematicCount,
                    core::ExpiryPolicy::kCoalesce, false},
        DiffVariant{"stratified_count", core::Method::kStratifiedCount,
                    core::ExpiryPolicy::kCoalesce, false},
        DiffVariant{"simple_random", core::Method::kSimpleRandom,
                    core::ExpiryPolicy::kCoalesce, false},
        DiffVariant{"systematic_timer_coalesce",
                    core::Method::kSystematicTimer,
                    core::ExpiryPolicy::kCoalesce, false},
        DiffVariant{"systematic_timer_queue", core::Method::kSystematicTimer,
                    core::ExpiryPolicy::kQueue, false},
        DiffVariant{"stratified_timer", core::Method::kStratifiedTimer,
                    core::ExpiryPolicy::kCoalesce, false},
        DiffVariant{"mixed", core::Method::kSystematicCount,
                    core::ExpiryPolicy::kCoalesce, true}),
    [](const ::testing::TestParamInfo<DiffVariant>& info) {
      return std::string(info.param.name);
    });

TEST(EngineDifferential, OutOfOrderChunkThrowsAndLeavesEngineUnchanged) {
  const auto t = bursty_trace(21, 2000);
  const DiffVariant v{"mixed", core::Method::kSystematicCount,
                      core::ExpiryPolicy::kCoalesce, true};
  const auto lanes = diff_lanes(v, DiffTargets::kBoth, t, 21, 0);
  EngineOptions options;
  options.window = MicroDuration{300'000};
  options.stride = MicroDuration{110'000};
  options.collect_indices = true;

  reference::ReferenceEngine oracle(lanes, options);
  const Observed want = run_engine(oracle, t, chunk_lengths(2000, 100, 21));

  Engine engine(lanes, options);
  Observed got;
  engine.on_snapshot([&](const WindowScore& ws) { record(ws, &got); });
  const auto packets = t.view().packets();
  engine.feed(packets.subspan(0, 1000));
  const std::size_t rows_before = got.rows.size();
  const auto mid_before = engine.current();

  // A chunk that runs backwards in its middle, and one whose first packet
  // predates the stream so far: both are refused whole.
  std::vector<trace::PacketRecord> bad(packets.begin() + 1000,
                                       packets.begin() + 1400);
  bad[200].timestamp = MicroTime{bad[199].timestamp.usec - 1};
  EXPECT_THROW(engine.feed(bad), std::invalid_argument);
  std::vector<trace::PacketRecord> stale(packets.begin() + 1000,
                                         packets.begin() + 1010);
  stale[0].timestamp = MicroTime{packets[999].timestamp.usec - 1};
  EXPECT_THROW(engine.feed(stale), std::invalid_argument);

  EXPECT_EQ(engine.packets(), 1000u);
  EXPECT_EQ(got.rows.size(), rows_before);
  const auto mid_after = engine.current();
  ASSERT_EQ(mid_after.lanes.size(), mid_before.lanes.size());
  for (std::size_t l = 0; l < mid_before.lanes.size(); ++l) {
    EXPECT_EQ(mid_after.lanes[l].metrics.phi, mid_before.lanes[l].metrics.phi);
    EXPECT_EQ(mid_after.lanes[l].metrics.sample_n,
              mid_before.lanes[l].metrics.sample_n);
  }

  // The stream then continues as if the bad chunks were never offered.
  engine.feed(packets.subspan(1000));
  record(engine.finish(), &got);
  got.indices = engine.lane_indices();
  got.packets = engine.packets();
  got.peak = engine.window_packets_peak();
  expect_same(want, got, "after refused chunks");
}

}  // namespace
}  // namespace netsample::stream
