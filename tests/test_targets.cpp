#include "core/targets.h"

#include <gtest/gtest.h>

#include "core/samplers.h"

namespace netsample::core {
namespace {

trace::Trace make_trace() {
  // Packets at 0, 400, 2000, 2400, 10000 us with sizes 40, 100, 552, 40, 200.
  std::vector<trace::PacketRecord> v;
  const std::uint64_t times[] = {0, 400, 2000, 2400, 10000};
  const std::uint16_t sizes[] = {40, 100, 552, 40, 200};
  for (int i = 0; i < 5; ++i) {
    trace::PacketRecord p;
    p.timestamp = MicroTime{times[i]};
    p.size = sizes[i];
    v.push_back(p);
  }
  return trace::Trace(std::move(v));
}

TEST(TargetBins, PacketSizeEdgesMatchPaper) {
  const auto e = paper_bin_edges(Target::kPacketSize);
  EXPECT_EQ(e, (std::vector<double>{41.0, 181.0}));
  const auto h = make_target_histogram(Target::kPacketSize);
  EXPECT_EQ(h.bin_count(), 3u);
}

TEST(TargetBins, InterarrivalEdgesMatchPaper) {
  const auto e = paper_bin_edges(Target::kInterarrivalTime);
  EXPECT_EQ(e, (std::vector<double>{800.0, 1200.0, 2400.0, 3600.0}));
  const auto h = make_target_histogram(Target::kInterarrivalTime);
  EXPECT_EQ(h.bin_count(), 5u);
}

TEST(TargetBins, PaperBoundaryCases) {
  auto h = make_target_histogram(Target::kPacketSize);
  // 40 -> "<41"; 41 and 180 -> middle; 181 -> top.
  EXPECT_EQ(h.bin_index(40), 0u);
  EXPECT_EQ(h.bin_index(41), 1u);
  EXPECT_EQ(h.bin_index(180), 1u);
  EXPECT_EQ(h.bin_index(181), 2u);

  auto g = make_target_histogram(Target::kInterarrivalTime);
  EXPECT_EQ(g.bin_index(799), 0u);
  EXPECT_EQ(g.bin_index(800), 1u);
  EXPECT_EQ(g.bin_index(1199), 1u);
  EXPECT_EQ(g.bin_index(1200), 2u);
  EXPECT_EQ(g.bin_index(2399), 2u);
  EXPECT_EQ(g.bin_index(2400), 3u);
  EXPECT_EQ(g.bin_index(3599), 3u);
  EXPECT_EQ(g.bin_index(3600), 4u);
}

TEST(PopulationValues, SizesAndGaps) {
  auto t = make_trace();
  const auto sizes = population_values(t.view(), Target::kPacketSize);
  EXPECT_EQ(sizes, (std::vector<double>{40, 100, 552, 40, 200}));
  const auto gaps = population_values(t.view(), Target::kInterarrivalTime);
  EXPECT_EQ(gaps, (std::vector<double>{400, 1600, 400, 7600}));
}

TEST(SampleValues, SizesOfSelected) {
  auto t = make_trace();
  Sample s{t.view(), {0, 2, 4}};
  EXPECT_EQ(sample_values(s, Target::kPacketSize),
            (std::vector<double>{40, 552, 200}));
}

TEST(SampleValues, InterarrivalUsesPredecessorInFullStream) {
  // This is the critical semantics: the selected packet's gap to its
  // predecessor in the PARENT stream, not to the previously selected packet.
  auto t = make_trace();
  Sample s{t.view(), {2, 4}};
  // Packet 2 (t=2000) follows packet 1 (t=400): gap 1600.
  // Packet 4 (t=10000) follows packet 3 (t=2400): gap 7600.
  EXPECT_EQ(sample_values(s, Target::kInterarrivalTime),
            (std::vector<double>{1600, 7600}));
}

TEST(SampleValues, FirstOfStreamContributesNothing) {
  auto t = make_trace();
  Sample s{t.view(), {0, 3}};
  EXPECT_EQ(sample_values(s, Target::kInterarrivalTime),
            (std::vector<double>{400}));
}

TEST(Sample, PacketsAndFraction) {
  auto t = make_trace();
  Sample s{t.view(), {1, 3}};
  const auto pk = s.packets();
  ASSERT_EQ(pk.size(), 2u);
  EXPECT_EQ(pk[0].size, 100);
  EXPECT_EQ(pk[1].size, 40);
  EXPECT_DOUBLE_EQ(s.fraction(), 0.4);
  EXPECT_DOUBLE_EQ((Sample{trace::TraceView{}, {}}).fraction(), 0.0);
}

TEST(BinPopulation, CountsMatchManualBinning) {
  auto t = make_trace();
  const auto h = bin_population(t.view(), Target::kPacketSize);
  EXPECT_EQ(h.count(0), 2u);  // 40, 40
  EXPECT_EQ(h.count(1), 1u);  // 100
  EXPECT_EQ(h.count(2), 2u);  // 552, 200
}

TEST(BinSample, CountsSelectedOnly) {
  auto t = make_trace();
  Sample s{t.view(), {0, 2}};
  const auto h = bin_sample(s, Target::kPacketSize);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 0u);
  EXPECT_EQ(h.count(2), 1u);
}

TEST(BinValues, CustomLayout) {
  const std::vector<double> vals = {1, 5, 10, 20};
  const stats::Histogram layout({6.0, 15.0});
  const auto h = bin_values(vals, layout);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
}

TEST(Draw, MatchesSamplerIndices) {
  auto t = make_trace();
  const auto sample = draw(
      t.view(), {.method = Method::kSystematicCount, .granularity = 2});
  EXPECT_EQ(sample.indices, (std::vector<std::size_t>{0, 2, 4}));
}

TEST(TargetNames, AreHuman) {
  EXPECT_STREQ(target_name(Target::kPacketSize), "packet size");
  EXPECT_STREQ(target_name(Target::kInterarrivalTime), "interarrival time");
}

}  // namespace
}  // namespace netsample::core
