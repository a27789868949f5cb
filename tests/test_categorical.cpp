#include "core/categorical.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/metrics.h"
#include "core/samplers.h"

namespace netsample::core {
namespace {

trace::PacketRecord pkt(std::uint64_t usec, std::uint8_t proto,
                        std::uint16_t dport, std::uint8_t src_net = 10,
                        std::uint8_t dst_net = 11) {
  trace::PacketRecord p;
  p.timestamp = MicroTime{usec};
  p.size = 100;
  p.protocol = proto;
  p.src = net::Ipv4Address(src_net, 0, 0, 1);
  p.dst = net::Ipv4Address(dst_net, 0, 0, 2);
  p.src_port = 2000;
  p.dst_port = dport;
  return p;
}

trace::Trace mixed_trace() {
  std::vector<trace::PacketRecord> v;
  std::uint64_t t = 0;
  // 60 telnet, 30 dns, 10 icmp.
  for (int i = 0; i < 60; ++i) v.push_back(pkt(t += 100, 6, 23));
  for (int i = 0; i < 30; ++i) v.push_back(pkt(t += 100, 17, 53));
  for (int i = 0; i < 10; ++i) v.push_back(pkt(t += 100, 1, 0));
  return trace::Trace(std::move(v));
}

TEST(CategoricalTarget, CategoriesOrderedByPopulationCount) {
  auto t = mixed_trace();
  CategoricalTarget target("proto", protocol_key(), t.view());
  EXPECT_EQ(target.category_count(), 3u);
  const auto& pop = target.population_counts();
  ASSERT_EQ(pop.size(), 4u);  // 3 categories + overflow
  EXPECT_DOUBLE_EQ(pop[0], 60.0);  // TCP first (largest)
  EXPECT_DOUBLE_EQ(pop[1], 30.0);
  EXPECT_DOUBLE_EQ(pop[2], 10.0);
  EXPECT_DOUBLE_EQ(pop[3], 0.0);   // overflow
}

TEST(CategoricalTarget, EmptyPopulationThrows) {
  EXPECT_THROW(CategoricalTarget("x", protocol_key(), trace::TraceView{}),
               std::invalid_argument);
}

TEST(CategoricalTarget, SampleCountsAlignWithPopulation) {
  auto t = mixed_trace();
  CategoricalTarget target("proto", protocol_key(), t.view());
  // Sample the first 10 packets (all telnet/TCP).
  Sample s{t.view(), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}};
  const auto counts = target.sample_counts(s);
  EXPECT_DOUBLE_EQ(counts[0], 10.0);
  EXPECT_DOUBLE_EQ(counts[1], 0.0);
  EXPECT_DOUBLE_EQ(counts[2], 0.0);
  EXPECT_DOUBLE_EQ(counts[3], 0.0);
}

TEST(CategoricalTarget, UnknownCategoryGoesToOverflow) {
  auto t = mixed_trace();
  CategoricalTarget target("proto", protocol_key(), t.view());
  // Packets from a different trace with an unseen protocol.
  std::vector<trace::PacketRecord> alien = {pkt(0, 89 /*OSPF*/, 0)};
  const auto counts = target.count_packets(alien);
  EXPECT_DOUBLE_EQ(counts.back(), 1.0);
}

TEST(CategoricalTarget, PerfectSampleScoresZeroPhi) {
  auto t = mixed_trace();
  CategoricalTarget target("proto", protocol_key(), t.view());
  // A 1-in-10 sample with exactly proportional composition: 6 TCP at
  // telnet positions, 3 UDP, 1 ICMP.
  std::vector<std::size_t> idx = {0, 10, 20, 30, 40, 50, 60, 70, 80, 90};
  Sample s{t.view(), idx};
  const auto counts = target.sample_counts(s);
  const auto m = score_counts(counts, target.population_counts(), 0.1);
  EXPECT_DOUBLE_EQ(m.phi, 0.0);
  EXPECT_DOUBLE_EQ(m.cost, 0.0);
}

TEST(CategoricalTarget, SkewedSampleScoresPositivePhi) {
  auto t = mixed_trace();
  CategoricalTarget target("proto", protocol_key(), t.view());
  Sample s{t.view(), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}};  // all TCP
  const auto counts = target.sample_counts(s);
  const auto m = score_counts(counts, target.population_counts(), 0.1);
  EXPECT_GT(m.phi, 0.3);
}

TEST(CategoricalTarget, Coverage) {
  auto t = mixed_trace();
  CategoricalTarget target("proto", protocol_key(), t.view());
  const std::vector<double> none = {0, 0, 0, 0};
  const std::vector<double> one = {5, 0, 0, 0};
  const std::vector<double> all = {5, 2, 1, 0};
  EXPECT_DOUBLE_EQ(target.coverage(none), 0.0);
  EXPECT_NEAR(target.coverage(one), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(target.coverage(all), 1.0);
}

TEST(ServicePortKey, DistinguishesProtocolAndService) {
  const auto key = service_port_key();
  const auto telnet = key(pkt(0, 6, 23));
  const auto telnet2 = key(pkt(1, 6, 23));
  const auto dns = key(pkt(2, 17, 53));
  const auto other = key(pkt(3, 6, 7777));
  const auto icmp = key(pkt(4, 1, 0));
  EXPECT_EQ(telnet, telnet2);
  EXPECT_NE(telnet, dns);
  EXPECT_NE(telnet, other);
  EXPECT_NE(other, icmp);
}

TEST(NetworkPairKey, GroupsByClassfulNets) {
  const auto key = network_pair_key();
  // Same class-A source/dest networks, different hosts -> same key.
  EXPECT_EQ(key(pkt(0, 6, 23, 10, 11)), key(pkt(1, 17, 53, 10, 11)));
  EXPECT_NE(key(pkt(0, 6, 23, 10, 11)), key(pkt(1, 6, 23, 10, 12)));
  EXPECT_NE(key(pkt(0, 6, 23, 10, 11)), key(pkt(1, 6, 23, 11, 10)));  // direction
}

trace::Trace periodic_trace() {
  // Five network pairs cycling with period 5 -- pathological for systematic
  // sampling at any k that shares a factor with the period.
  std::vector<trace::PacketRecord> v;
  std::uint64_t ts = 0;
  for (int i = 0; i < 3000; ++i) {
    const int which = i % 5;
    v.push_back(pkt(ts += 500, which < 3 ? 6 : 17,
                    which < 3 ? std::uint16_t(23) : std::uint16_t(53),
                    static_cast<std::uint8_t>(10 + which), 99));
  }
  return trace::Trace(std::move(v));
}

TEST(CategoricalTarget, SystematicSamplingAliasesOnPeriodicData) {
  // Section 5 of the paper: systematic sampling loses badly "if there is
  // positive correlation between pairs of elements within the systematic
  // sample". With a period-5 pattern and k=10, every selected packet is the
  // same category -- coverage 1/5 and an enormous phi.
  auto t = periodic_trace();
  CategoricalTarget target("pairs", network_pair_key(), t.view());
  EXPECT_EQ(target.category_count(), 5u);

  const auto s =
      draw(t.view(), {.method = Method::kSystematicCount, .granularity = 10});
  const auto counts = target.sample_counts(s);
  EXPECT_DOUBLE_EQ(target.coverage(counts), 0.2);
  const auto m = score_counts(counts, target.population_counts(), 0.1);
  EXPECT_GT(m.phi, 0.5);
}

TEST(CategoricalTarget, StratifiedSamplingDefeatsPeriodicity) {
  // Randomizing within buckets restores full coverage and a low phi on the
  // same pathological input -- the paper's argument for stratified random
  // sampling under patterned traffic.
  auto t = periodic_trace();
  CategoricalTarget target("pairs", network_pair_key(), t.view());

  const auto s = draw(t.view(), {.method = Method::kStratifiedCount,
                                  .granularity = 10,
                                  .seed = 21});
  const auto counts = target.sample_counts(s);
  EXPECT_DOUBLE_EQ(target.coverage(counts), 1.0);
  const auto m = score_counts(counts, target.population_counts(), 0.1);
  EXPECT_LT(m.phi, 0.1);
}

}  // namespace
}  // namespace netsample::core
