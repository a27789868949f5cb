#include "exper/experiment.h"
#include "exper/runner.h"

#include <gtest/gtest.h>

#include <set>

namespace netsample::exper {
namespace {

// A shared 3-minute experiment keeps the suite fast (~75k packets).
class ExperTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ex_ = new Experiment(23, 3.0); }
  static void TearDownTestSuite() {
    delete ex_;
    ex_ = nullptr;
  }
  static Experiment* ex_;
};

Experiment* ExperTest::ex_ = nullptr;

TEST_F(ExperTest, PopulationStatsAreComputed) {
  EXPECT_GT(ex_->population_size(), 50000u);
  EXPECT_NEAR(ex_->mean_packet_size(), 232.0, 30.0);
  EXPECT_NEAR(ex_->mean_interarrival_usec(), 2358.0, 300.0);
  EXPECT_GT(ex_->stddev_packet_size(), 100.0);
  EXPECT_GT(ex_->stddev_interarrival_usec(), 1000.0);
}

TEST_F(ExperTest, IntervalIsPrefixWindow) {
  const auto w = ex_->interval(60.0);
  ASSERT_FALSE(w.empty());
  EXPECT_LT(w.duration().usec, MicroDuration::from_seconds(60).usec);
  EXPECT_EQ(w.start_time(), ex_->full().start_time());
  EXPECT_LT(w.size(), ex_->population_size());
}

TEST_F(ExperTest, RunCellProducesRequestedReplications) {
  CellConfig cfg;
  cfg.method = core::Method::kSystematicCount;
  cfg.target = core::Target::kPacketSize;
  cfg.granularity = 16;
  cfg.interval = ex_->interval(64.0);
  cfg.mean_interarrival_usec = ex_->mean_interarrival_usec();
  cfg.replications = 5;
  const auto r = run_cell(cfg);
  EXPECT_EQ(r.replications.size(), 5u);
  EXPECT_EQ(r.phi_values().size(), 5u);
  EXPECT_GT(r.mean_sample_size(), 0.0);
  // phi of a fine-grained packet sample is near zero.
  EXPECT_LT(r.phi_mean(), 0.05);
}

TEST_F(ExperTest, RunCellValidation) {
  CellConfig cfg;
  cfg.interval = trace::TraceView{};
  EXPECT_THROW((void)run_cell(cfg), std::invalid_argument);
  cfg.interval = ex_->interval(8.0);
  cfg.replications = 0;
  EXPECT_THROW((void)run_cell(cfg), std::invalid_argument);
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
// k = 0 is refused with one message by every entry point, before anything
// divides by it: replication_spec computes rep % k for systematic/count.
TEST_F(ExperTest, ZeroGranularityIsRefusedByEveryEntryPoint) {
  const auto expect_refused = [](const auto& call) {
    try {
      (void)call();
      ADD_FAILURE() << "granularity 0 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "sampler spec: granularity must be >= 1");
    }
  };
  for (const auto method :
       {core::Method::kSystematicCount, core::Method::kStratifiedCount,
        core::Method::kSimpleRandom, core::Method::kSystematicTimer,
        core::Method::kStratifiedTimer}) {
    SCOPED_TRACE(core::method_name(method));
    CellConfig cfg;
    cfg.method = method;
    cfg.granularity = 0;
    cfg.interval = ex_->interval(8.0);
    cfg.mean_interarrival_usec = ex_->mean_interarrival_usec();
    cfg.replications = 3;
    expect_refused([&] { return replication_spec(cfg, 1); });
    expect_refused([&] { return run_cell(cfg); });
    expect_refused([&] { return run_cell_reference(cfg); });
  }
}
#pragma GCC diagnostic pop

TEST_F(ExperTest, ReplicationSpecsVarySystematicOffsets) {
  CellConfig cfg;
  cfg.method = core::Method::kSystematicCount;
  cfg.granularity = 50;
  cfg.interval = ex_->interval(16.0);
  cfg.replications = 5;
  std::set<std::uint64_t> offsets;
  for (int r = 0; r < 5; ++r) offsets.insert(replication_spec(cfg, r).offset);
  EXPECT_EQ(offsets.size(), 5u);
  for (auto o : offsets) EXPECT_LT(o, 50u);
}

TEST_F(ExperTest, ReplicationSpecsVaryTimerPhases) {
  CellConfig cfg;
  cfg.method = core::Method::kSystematicTimer;
  cfg.granularity = 50;
  cfg.mean_interarrival_usec = 2358.0;
  cfg.interval = ex_->interval(16.0);
  cfg.replications = 5;
  std::set<std::uint64_t> phases;
  for (int r = 0; r < 5; ++r) {
    phases.insert(replication_spec(cfg, r).timer_phase_usec);
  }
  EXPECT_EQ(phases.size(), 5u);
}

TEST_F(ExperTest, ReplicationSpecsVaryRandomSeeds) {
  CellConfig cfg;
  cfg.method = core::Method::kStratifiedCount;
  cfg.granularity = 50;
  cfg.interval = ex_->interval(16.0);
  cfg.replications = 3;
  std::set<std::uint64_t> seeds;
  for (int r = 0; r < 3; ++r) seeds.insert(replication_spec(cfg, r).seed);
  EXPECT_EQ(seeds.size(), 3u);
}

TEST_F(ExperTest, SweepGranularityReturnsOneCellPerK) {
  CellConfig cfg;
  cfg.method = core::Method::kSystematicCount;
  cfg.target = core::Target::kPacketSize;
  cfg.interval = ex_->interval(64.0);
  cfg.replications = 3;
  const auto ks = std::vector<std::uint64_t>{4, 64, 1024};
  const auto cells = sweep_granularity(cfg, ks);
  ASSERT_EQ(cells.size(), 3u);
  for (std::size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(cells[i].config.granularity, ks[i]);
  }
  // Coarser sampling scores worse on average (the paper's Figure 7 trend).
  EXPECT_LT(cells[0].phi_mean(), cells[2].phi_mean());
}

TEST_F(ExperTest, SweepIntervalImprovesWithTime) {
  CellConfig cfg;
  cfg.method = core::Method::kSystematicCount;
  cfg.target = core::Target::kPacketSize;
  cfg.granularity = 256;
  cfg.replications = 5;
  const auto cells =
      sweep_interval(cfg, ex_->full(), {8.0, 32.0, 128.0});
  ASSERT_EQ(cells.size(), 3u);
  // Longer intervals yield larger samples, hence better phi (Figure 10).
  EXPECT_GT(cells[0].config.interval.size(), 0u);
  EXPECT_LT(cells[2].phi_mean(), cells[0].phi_mean() + 0.05);
  EXPECT_GT(cells[2].mean_sample_size(), cells[0].mean_sample_size());
}

TEST_F(ExperTest, RejectionsCountedAtAlpha) {
  CellConfig cfg;
  cfg.method = core::Method::kSystematicCount;
  cfg.target = core::Target::kPacketSize;
  cfg.granularity = 32;
  cfg.interval = ex_->interval(64.0);
  cfg.replications = 10;
  const auto r = run_cell(cfg);
  const int rej_05 = r.rejections_at(0.05);
  const int rej_all = r.rejections_at(1.1);
  EXPECT_LE(rej_05, 10);
  EXPECT_EQ(rej_all, 10);  // every significance < 1.1
}

TEST(GranularityLadder, PowersOfTwo) {
  const auto l = granularity_ladder(2, 32768);
  ASSERT_EQ(l.size(), 15u);
  EXPECT_EQ(l.front(), 2u);
  EXPECT_EQ(l.back(), 32768u);
  for (std::size_t i = 1; i < l.size(); ++i) EXPECT_EQ(l[i], l[i - 1] * 2);
}

TEST(GranularityLadder, CustomRange) {
  const auto l = granularity_ladder(4, 64);
  EXPECT_EQ(l, (std::vector<std::uint64_t>{4, 8, 16, 32, 64}));
}

TEST(Experiment, FromExistingTrace) {
  std::vector<trace::PacketRecord> v;
  for (int i = 0; i < 100; ++i) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{static_cast<std::uint64_t>(i) * 1000};
    p.size = 100;
    v.push_back(p);
  }
  Experiment ex{trace::Trace(std::move(v))};
  EXPECT_EQ(ex.population_size(), 100u);
  EXPECT_DOUBLE_EQ(ex.mean_packet_size(), 100.0);
  EXPECT_DOUBLE_EQ(ex.mean_interarrival_usec(), 1000.0);
}

}  // namespace
}  // namespace netsample::exper
