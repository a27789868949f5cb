// End-to-end integration tests: the paper's headline findings must hold on
// the full pipeline (synthetic population -> samplers -> binning -> metrics),
// and the pcap layer must round-trip an experiment's input without changing
// its results.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "charact/agent.h"
#include "core/metrics.h"
#include "core/samplers.h"
#include "core/targets.h"
#include "exper/experiment.h"
#include "exper/runner.h"
#include "pcap/pcap.h"

namespace netsample {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ex_ = new exper::Experiment(23, 8.0); }
  static void TearDownTestSuite() {
    delete ex_;
    ex_ = nullptr;
  }
  static exper::Experiment* ex_;

  exper::CellConfig cell(core::Method m, core::Target t,
                         std::uint64_t k) const {
    exper::CellConfig cfg;
    cfg.method = m;
    cfg.target = t;
    cfg.granularity = k;
    cfg.interval = ex_->interval(256.0);
    cfg.mean_interarrival_usec = ex_->mean_interarrival_usec();
    cfg.replications = 5;
    cfg.base_seed = 17;
    return cfg;
  }
};

exper::Experiment* IntegrationTest::ex_ = nullptr;

TEST_F(IntegrationTest, HeadlineResultTimerMethodsAreUniformlyWorse) {
  for (auto target :
       {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    const double sys = exper::run_cell(
                           cell(core::Method::kSystematicCount, target, 64))
                           .phi_mean();
    const double strat = exper::run_cell(
                             cell(core::Method::kStratifiedCount, target, 64))
                             .phi_mean();
    const double rand = exper::run_cell(
                            cell(core::Method::kSimpleRandom, target, 64))
                            .phi_mean();
    const double tsys = exper::run_cell(
                            cell(core::Method::kSystematicTimer, target, 64))
                            .phi_mean();
    const double tstrat = exper::run_cell(
                              cell(core::Method::kStratifiedTimer, target, 64))
                              .phi_mean();
    const double worst_packet = std::max({sys, strat, rand});
    EXPECT_GT(tsys, 2.0 * worst_packet) << core::target_name(target);
    EXPECT_GT(tstrat, 2.0 * worst_packet) << core::target_name(target);
  }
}

TEST_F(IntegrationTest, HeadlineResultWithinClassDifferencesAreSmall) {
  const auto target = core::Target::kPacketSize;
  const double sys =
      exper::run_cell(cell(core::Method::kSystematicCount, target, 64)).phi_mean();
  const double strat =
      exper::run_cell(cell(core::Method::kStratifiedCount, target, 64)).phi_mean();
  const double rand =
      exper::run_cell(cell(core::Method::kSimpleRandom, target, 64)).phi_mean();
  const double lo = std::min({sys, strat, rand});
  const double hi = std::max({sys, strat, rand});
  EXPECT_LT(hi - lo, 0.03);  // all packet methods are near-equivalent
}

TEST_F(IntegrationTest, TimerBiasSkewsInterarrivalsTowardLargeValues) {
  // The mechanism: timer sampling over-selects packets after long gaps, so
  // the top interarrival bin (>3600us) is over-represented.
  auto interval = ex_->interval(256.0);
  const auto pop =
      core::bin_population(interval, core::Target::kInterarrivalTime);
  const auto pop_props = pop.proportions();

  core::SamplerSpec spec;
  spec.method = core::Method::kSystematicTimer;
  spec.granularity = 64;
  spec.mean_interarrival_usec = ex_->mean_interarrival_usec();
  const auto sample = core::draw(interval, spec);
  const auto obs = core::bin_sample(sample, core::Target::kInterarrivalTime);
  const auto obs_props = obs.proportions();

  EXPECT_GT(obs_props.back(), 1.5 * pop_props.back());   // >3600us inflated
  EXPECT_LT(obs_props.front(), pop_props.front());        // <800us deflated
}

TEST_F(IntegrationTest, WaitingTimeParadoxIsQuantitative) {
  // METHODOLOGY.md section 2: a timer trigger lands in a gap with
  // probability proportional to its length, so the sampled predecessor-gap
  // mean approaches E[g^2]/E[g] = E[g](1 + cv^2). Verify the measured
  // inflation against the population's own cv.
  auto interval = ex_->interval(512.0);
  const auto gaps = interval.interarrivals();
  double sum = 0.0, sum2 = 0.0;
  for (double g : gaps) {
    sum += g;
    sum2 += g * g;
  }
  const double n = static_cast<double>(gaps.size());
  const double mean = sum / n;
  const double length_biased_mean = (sum2 / n) / mean;  // E[g^2]/E[g]

  core::SamplerSpec spec;
  spec.method = core::Method::kSystematicTimer;
  spec.granularity = 128;
  spec.mean_interarrival_usec = ex_->mean_interarrival_usec();
  const auto sample = core::draw(interval, spec);
  const auto sampled_gaps =
      core::sample_values(sample, core::Target::kInterarrivalTime);
  ASSERT_GT(sampled_gaps.size(), 100u);
  double s_sum = 0.0;
  for (double g : sampled_gaps) s_sum += g;
  const double sampled_mean = s_sum / static_cast<double>(sampled_gaps.size());

  // The timer-sampled mean gap must be strongly inflated toward the
  // length-biased prediction (coalescing of expiries and the clock floor
  // keep it from matching exactly; 25% tolerance).
  EXPECT_GT(sampled_mean, 1.5 * mean);
  EXPECT_NEAR(sampled_mean, length_biased_mean, 0.25 * length_biased_mean);

  // Packet-count sampling shows no such inflation.
  core::SamplerSpec unbiased = spec;
  unbiased.method = core::Method::kSystematicCount;
  const auto count_sample = core::draw(interval, unbiased);
  const auto count_gaps =
      core::sample_values(count_sample, core::Target::kInterarrivalTime);
  double c_sum = 0.0;
  for (double g : count_gaps) c_sum += g;
  const double count_mean = c_sum / static_cast<double>(count_gaps.size());
  EXPECT_NEAR(count_mean, mean, 0.15 * mean);
}

TEST_F(IntegrationTest, PhiDegradesWithCoarserSampling) {
  exper::CellConfig cfg =
      cell(core::Method::kSystematicCount, core::Target::kPacketSize, 2);
  const auto cells = exper::sweep_granularity(cfg, {4, 64, 1024, 8192});
  // Mean phi should be (weakly) increasing overall: compare ends.
  EXPECT_LT(cells.front().phi_mean() * 3, cells.back().phi_mean() + 1e-9);
  // Variance across replications also grows (Figure 6's second effect).
  const auto spread = [](const exper::CellResult& c) {
    const auto b = c.phi_boxplot();
    return b.max - b.min;
  };
  EXPECT_LE(spread(cells.front()), spread(cells.back()) + 1e-9);
}

TEST_F(IntegrationTest, OperationalFiftyToOnePassesChiSquared) {
  // Section 6: systematic 1/50 should almost always be accepted by the
  // chi-squared test at the 0.05 level.
  exper::CellConfig cfg =
      cell(core::Method::kSystematicCount, core::Target::kPacketSize, 50);
  cfg.replications = 50;
  const auto r = exper::run_cell(cfg);
  EXPECT_LE(r.rejections_at(0.05), 8);  // paper saw 2-3 of 50
}

TEST_F(IntegrationTest, PcapRoundTripPreservesExperimentResults) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "netsample_integration.pcap").string();

  // Use a 20-second slice to keep file size modest.
  auto slice = ex_->interval(20.0);
  trace::Trace sliced(std::vector<trace::PacketRecord>(slice.begin(), slice.end()));
  ASSERT_TRUE(pcap::write_trace(path, sliced, 128).is_ok());
  auto loaded = pcap::read_trace(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), sliced.size());

  // The same sampler on the reloaded trace yields identical phi.
  auto score = [&](trace::TraceView v) {
    const auto sample = core::draw(
        v, {.method = core::Method::kSystematicCount, .granularity = 16});
    const auto pop = core::bin_population(v, core::Target::kPacketSize);
    const auto obs = core::bin_sample(sample, core::Target::kPacketSize);
    return core::score_sample(obs, pop, 1.0 / 16.0).phi;
  };
  EXPECT_DOUBLE_EQ(score(sliced.view()), score(loaded->view()));
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, SampledCharacterizationApproximatesFullObjects) {
  // Feed the characterization agent everything vs a 1-in-50 systematic
  // selection; the protocol mix proportions should be close.
  auto slice = ex_->interval(120.0);

  charact::CollectionAgent full_agent(charact::NodeType::kT3);
  full_agent.run(slice);

  int counter = 0;
  charact::CollectionAgent sampled_agent(
      charact::NodeType::kT3,
      [&counter](const trace::PacketRecord&) { return counter++ % 50 == 0; });
  sampled_agent.run(slice);

  ASSERT_FALSE(full_agent.reports().empty());
  ASSERT_FALSE(sampled_agent.reports().empty());
  const auto& full = full_agent.reports()[0];
  const auto& samp = sampled_agent.reports()[0];

  const double full_total = static_cast<double>(full.packets_examined);
  const double samp_total = static_cast<double>(samp.packets_examined);
  ASSERT_GT(samp_total, 100.0);
  for (const auto& [proto, vol] : full.protocols) {
    const double p_full = static_cast<double>(vol.packets) / full_total;
    const auto it = samp.protocols.find(proto);
    const double p_samp =
        it == samp.protocols.end()
            ? 0.0
            : static_cast<double>(it->second.packets) / samp_total;
    EXPECT_NEAR(p_samp, p_full, 0.05) << "protocol " << int(proto);
  }
}

}  // namespace
}  // namespace netsample
