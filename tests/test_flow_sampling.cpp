// Flow-workload differential and property suite.
//
// The flow sweep's headline contract is that `netsample flows --sweep` is
// byte-identical across --jobs, --workers, and SIMD variants. That rests on
// three layered properties, each pinned here:
//
//   (1) the index-emitting kernels and the streaming samplers select the
//       SAME packets, so a SampledFlowTable fed either way produces the
//       same finished records (all five methods, both fed-path variants);
//   (2) the table itself is a pure function of the offered packet sequence
//       — LRU eviction and expiry batches are deterministic, never
//       hash-iteration-ordered;
//   (3) the per-cell scoring is schedule-independent: a ParallelRunner
//       sweep over flow cells returns bit-identical metrics at any --jobs.
//
// Plus the memory-pressure property: a capped table splits flows but never
// loses packets — per-key merged totals match the uncapped table exactly.
#include "flow/sampled_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/samplers.h"
#include "core/select_indices.h"
#include "core/simd/simd.h"
#include "exper/experiment.h"
#include "exper/parallel.h"
#include "exper/runner.h"
#include "flow/size_dist.h"
#include "flow/sweep.h"
#include "synth/model.h"
#include "synth/presets.h"

namespace netsample::flow {
namespace {

constexpr MicroDuration kTimeout = MicroDuration::from_seconds(30);

/// Shared heavy-tailed fixture: one flow-mix trace, built once.
class FlowSamplingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::TraceModel model(synth::flow_mix_minutes_config(2.0, 23));
    ex_ = new exper::Experiment(model.generate());
  }
  static void TearDownTestSuite() {
    delete ex_;
    ex_ = nullptr;
  }
  static exper::Experiment* ex_;
};

exper::Experiment* FlowSamplingTest::ex_ = nullptr;

std::vector<trace::FlowRecord> records_from_indices(
    trace::TraceView view, const std::vector<std::size_t>& idx,
    std::size_t capacity) {
  SampledFlowTable table(kTimeout, capacity);
  for (std::size_t i : idx) table.offer(view[i]);
  table.flush();
  return table.records();
}

exper::CellConfig flow_cell_config(const exper::Experiment& ex,
                                   core::Method method, std::uint64_t k) {
  exper::CellConfig cfg;
  cfg.method = method;
  cfg.target = core::Target::kPacketSize;
  cfg.granularity = k;
  cfg.interval = ex.interval(60.0);
  cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
  cfg.replications = 2;
  cfg.base_seed = 45;
  cfg.cache = &ex.binned_cache();
  return cfg;
}

const core::Method kAllMethods[] = {
    core::Method::kSystematicCount, core::Method::kStratifiedCount,
    core::Method::kSimpleRandom, core::Method::kSystematicTimer,
    core::Method::kStratifiedTimer};

// (1) Kernel-fed and streaming-fed tables agree record-for-record. The
// streaming hierarchy is the oracle (same contract select_indices is pinned
// to in test_select_indices.cpp); identical index sets MUST give identical
// records because the table is offered the same packets in the same order.
TEST_F(FlowSamplingTest, KernelFedMatchesStreamingFedRecords) {
  const auto& cache = ex_->binned_cache();
  for (const auto method : kAllMethods) {
    for (const std::uint64_t k : {std::uint64_t{8}, std::uint64_t{64}}) {
      const auto cfg = flow_cell_config(*ex_, method, k);
      const std::size_t begin = cache.offset_of(cfg.interval);
      const std::size_t end = begin + cfg.interval.size();
      for (int r = 0; r < cfg.replications; ++r) {
        const core::SamplerSpec spec = exper::replication_spec(cfg, r);
        const auto kernel_idx = core::select_indices(spec, cache, begin, end);
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
        auto sampler = core::make_sampler(spec);
#pragma GCC diagnostic pop
        const auto stream_idx =
            core::draw_sample_indices(cfg.interval, *sampler);
        ASSERT_EQ(kernel_idx, stream_idx)
            << core::method_name(method) << " k=" << k << " r=" << r;
        EXPECT_EQ(records_from_indices(cfg.interval, kernel_idx, 0),
                  records_from_indices(cfg.interval, stream_idx, 0))
            << core::method_name(method) << " k=" << k << " r=" << r;
      }
    }
  }
}

// (1b) SIMD variants cannot change which packets feed the table. Runs the
// selection under forced-scalar and under the machine's best variant; both
// the index sets and the finished records must be identical. On scalar-only
// machines this degenerates to scalar-vs-scalar, which is fine: the test
// then pins that force/clear round-trips cleanly.
TEST_F(FlowSamplingTest, SimdVariantsFeedIdenticalRecords) {
  struct VariantGuard {
    explicit VariantGuard(core::simd::Variant v) {
      core::simd::force_variant(v);
    }
    ~VariantGuard() { core::simd::clear_variant_override(); }
  };
  const auto& cache = ex_->binned_cache();
  for (const auto method : kAllMethods) {
    const auto cfg = flow_cell_config(*ex_, method, 16);
    const std::size_t begin = cache.offset_of(cfg.interval);
    const std::size_t end = begin + cfg.interval.size();
    const core::SamplerSpec spec = exper::replication_spec(cfg, 0);

    std::vector<std::size_t> scalar_idx;
    {
      VariantGuard g(core::simd::Variant::kScalar);
      scalar_idx = core::select_indices(spec, cache, begin, end);
    }
    std::vector<std::size_t> best_idx;
    {
      VariantGuard g(core::simd::best_variant());
      best_idx = core::select_indices(spec, cache, begin, end);
    }
    ASSERT_EQ(scalar_idx, best_idx) << core::method_name(method);
    EXPECT_EQ(records_from_indices(cfg.interval, scalar_idx, 0),
              records_from_indices(cfg.interval, best_idx, 0))
        << core::method_name(method);
  }
}

// (3) A flow sweep through the ParallelRunner returns bit-identical metrics
// at --jobs 1 and --jobs 4. The cell_runner hook routes every cell through
// flow::run_flow_cell; seeds are coordinate-derived, so the schedule cannot
// leak into the results.
TEST_F(FlowSamplingTest, ParallelRunnerJobsEquivalence) {
  std::vector<exper::GridTask> tasks;
  for (const auto method :
       {core::Method::kSystematicCount, core::Method::kSimpleRandom,
        core::Method::kStratifiedTimer}) {
    for (const std::uint64_t k : {std::uint64_t{10}, std::uint64_t{100}}) {
      exper::GridTask t;
      t.config = flow_cell_config(*ex_, method, k);
      t.config.replications = 3;
      tasks.push_back(t);
    }
  }
  const FlowParams params;
  exper::RunOptions opts;
  opts.on_error = exper::FailPolicy::kSkip;
  opts.cell_runner = [&params](const exper::CellConfig& cfg,
                               std::size_t index) {
    return run_flow_cell(cfg, params,
                         index % 2 == 0 ? Estimator::kTailRescale
                                        : Estimator::kEm);
  };

  const auto r1 = exper::ParallelRunner(1).run(tasks, 45, opts);
  const auto r4 = exper::ParallelRunner(4).run(tasks, 45, opts);
  ASSERT_EQ(r1.cells.size(), tasks.size());
  ASSERT_EQ(r4.cells.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ASSERT_TRUE(r1.cells[i].status.is_ok()) << i;
    ASSERT_TRUE(r4.cells[i].status.is_ok()) << i;
    const auto& a = r1.cells[i].result.replications;
    const auto& b = r4.cells[i].result.replications;
    ASSERT_EQ(a.size(), b.size()) << i;
    for (std::size_t r = 0; r < a.size(); ++r) {
      // Bit-identical, not within-epsilon: EXPECT_EQ on doubles.
      EXPECT_EQ(a[r].chi2, b[r].chi2) << i << "/" << r;
      EXPECT_EQ(a[r].phi, b[r].phi) << i << "/" << r;
      EXPECT_EQ(a[r].significance, b[r].significance) << i << "/" << r;
      EXPECT_EQ(a[r].avg_norm_dev, b[r].avg_norm_dev) << i << "/" << r;
      EXPECT_EQ(a[r].sample_n, b[r].sample_n) << i << "/" << r;
    }
  }
}

// Memory pressure: a capped table evicts live flows early — splitting them
// into multiple records — but conserves every offered packet and byte. The
// per-key totals of the capped table, merged across splits, must equal the
// uncapped table's exactly.
TEST_F(FlowSamplingTest, CappedTableConservesPacketsUnderEviction) {
  const auto cfg =
      flow_cell_config(*ex_, core::Method::kSystematicCount, 4);
  const auto& cache = ex_->binned_cache();
  const std::size_t begin = cache.offset_of(cfg.interval);
  const core::SamplerSpec spec = exper::replication_spec(cfg, 0);
  const auto idx = core::select_indices(spec, cache, begin,
                                        begin + cfg.interval.size());

  SampledFlowTable uncapped(kTimeout, 0);
  SampledFlowTable capped(kTimeout, 16);
  for (std::size_t i : idx) {
    uncapped.offer(cfg.interval[i]);
    capped.offer(cfg.interval[i]);
  }
  uncapped.flush();
  capped.flush();

  ASSERT_GT(capped.stats().evictions, 0u) << "cap too large to exercise";
  EXPECT_EQ(capped.stats().packets_offered, uncapped.stats().packets_offered);
  // Evicted flows that receive further packets split into extra records;
  // the count can only grow under pressure, never shrink.
  EXPECT_GE(capped.records().size(), uncapped.records().size());

  using Totals = std::pair<std::uint64_t, std::uint64_t>;  // packets, bytes
  const auto merge = [](const std::vector<trace::FlowRecord>& recs) {
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t,
                        std::uint16_t, std::uint8_t>,
             Totals>
        m;
    for (const auto& f : recs) {
      auto& t = m[{f.key.src.value(), f.key.dst.value(), f.key.src_port,
                   f.key.dst_port, f.key.protocol}];
      t.first += f.packets;
      t.second += f.bytes;
    }
    return m;
  };
  EXPECT_EQ(merge(capped.records()), merge(uncapped.records()));
}

// ---- SampledFlowTable unit behaviors ----

trace::PacketRecord packet(std::uint64_t usec, std::uint16_t src_port,
                           std::uint16_t size = 100) {
  trace::PacketRecord p;
  p.timestamp = MicroTime{usec};
  p.size = size;
  p.protocol = 6;
  p.src = net::Ipv4Address(10, 0, 0, 1);
  p.dst = net::Ipv4Address(10, 0, 0, 2);
  p.src_port = src_port;
  p.dst_port = 80;
  return p;
}

TEST(SampledFlowTable, RejectsBadConstruction) {
  EXPECT_THROW(SampledFlowTable(MicroDuration{0}, 0), std::invalid_argument);
  EXPECT_THROW(SampledFlowTable(MicroDuration{-5}, 0), std::invalid_argument);
}

TEST(SampledFlowTable, RejectsTimeTravel) {
  SampledFlowTable t(kTimeout, 0);
  t.offer(packet(1000, 1));
  EXPECT_THROW(t.offer(packet(999, 1)), std::invalid_argument);
}

TEST(SampledFlowTable, IdleTimeoutSplitsFlow) {
  SampledFlowTable t(kTimeout, 0);
  t.offer(packet(0, 1));
  t.offer(packet(1000, 1));
  // Same 5-tuple, but a gap past the idle timeout: a second flow record.
  t.offer(packet(1000 + 31 * 1'000'000, 1));
  t.flush();
  ASSERT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.records()[0].packets, 2u);
  EXPECT_EQ(t.records()[1].packets, 1u);
  EXPECT_EQ(t.stats().idle_expiries, 1u);
  EXPECT_EQ(t.stats().evictions, 0u);
}

TEST(SampledFlowTable, EvictsLeastRecentlySeenFlow) {
  SampledFlowTable t(kTimeout, 2);
  t.offer(packet(0, 1));    // flow A
  t.offer(packet(10, 2));   // flow B
  t.offer(packet(20, 1));   // A touched again -> B is now LRU
  t.offer(packet(30, 3));   // flow C: table full, evicts B
  t.flush();
  ASSERT_EQ(t.records().size(), 3u);
  // The eviction is emitted at its logical time, before the flush batch.
  EXPECT_EQ(t.records()[0].key.src_port, 2);
  EXPECT_EQ(t.stats().evictions, 1u);
  // Flush batch is sorted by (first_seen, 5-tuple): A then C.
  EXPECT_EQ(t.records()[1].key.src_port, 1);
  EXPECT_EQ(t.records()[2].key.src_port, 3);
}

TEST(SampledFlowTable, StatsCountersAreExact) {
  SampledFlowTable t(kTimeout, 2);
  t.offer(packet(0, 1));
  t.offer(packet(10, 2));
  t.offer(packet(20, 3));                       // evicts flow 1
  t.offer(packet(40 * 1'000'000, 4));           // expires flows 2 and 3
  t.flush();
  const auto s = t.stats();
  EXPECT_EQ(s.packets_offered, 4u);
  EXPECT_EQ(s.flows_finished, 4u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.idle_expiries, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

// ---- SizeDist / binning unit behaviors ----

TEST(SizeDist, AggregatesAndTruncates) {
  SizeDist d;
  d.add(1, 3.0);
  d.add(4, 2.0);
  d.add(4, 1.0);
  d.add(0, 7.0);  // size-0 flows do not exist; ignored
  EXPECT_EQ(d.count(4), 3.0);
  EXPECT_EQ(d.total_flows(), 6.0);
  EXPECT_EQ(d.total_packets(), 3.0 + 12.0);
  EXPECT_EQ(d.max_size(), 4u);
  EXPECT_EQ(d.tail_flows(2), 3.0);
  const SizeDist t = d.truncated_below(2);
  EXPECT_EQ(t.count(1), 0.0);
  EXPECT_EQ(t.count(4), 3.0);
}

TEST(SizeDist, BinsAreExactThenGeometricAndCoverEverything) {
  const auto bins = flow_size_bins(10'000);
  ASSERT_GE(bins.size(), 10u);
  for (std::uint64_t s = 1; s <= 8; ++s) EXPECT_EQ(bins[s - 1], s);
  for (std::size_t i = 1; i < bins.size(); ++i) {
    EXPECT_GT(bins[i], bins[i - 1]);
  }
  EXPECT_LE(bins.back(), 10'000u);

  SizeDist d;
  d.add(1, 1.0);
  d.add(9'999, 2.0);
  d.add(123, 4.0);
  const auto c = bin_counts(d, bins);
  double total = 0;
  for (double x : c) total += x;
  EXPECT_EQ(total, d.total_flows());  // nothing falls off either end
}

}  // namespace
}  // namespace netsample::flow
