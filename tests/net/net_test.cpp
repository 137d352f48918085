#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "capi/frame.hpp"
#include "net/latency_dist.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"

namespace tfsim::net {
namespace {

// --- CRC32 -------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // IEEE CRC-32 of "123456789" is 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
  // CRC of empty input is 0.
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SensitiveToEveryByte) {
  std::vector<std::uint8_t> data(64, 0xAB);
  const auto base = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto copy = data;
    copy[i] ^= 1;
    EXPECT_NE(crc32(copy), base) << "byte " << i;
  }
}

// --- packet encapsulation -----------------------------------------------

TEST(PacketTest, RoundTripReadRequest) {
  capi::Command cmd;
  cmd.opcode = capi::Opcode::kReadRequest;
  cmd.tag = 42;
  cmd.addr = 0xDEAD'BEEF;
  const auto pkt = encapsulate(1, 2, 77, cmd);
  EXPECT_EQ(pkt.header.src, 1u);
  EXPECT_EQ(pkt.header.dst, 2u);
  EXPECT_EQ(pkt.header.seq, 77u);
  EXPECT_EQ(pkt.payload.size(), capi::kFrameBytes);  // no data payload
  const auto out = decapsulate(pkt);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, cmd);
}

TEST(PacketTest, DataCarryingDirectionsIncludeLine) {
  capi::Command wr;
  wr.opcode = capi::Opcode::kWriteRequest;
  wr.size = 128;
  const auto pkt = encapsulate(0, 1, 0, wr);
  EXPECT_EQ(pkt.payload.size(), capi::kFrameBytes + 128);
  EXPECT_EQ(pkt.wire_bytes(), kPacketHeaderBytes + capi::kFrameBytes + 128);
  EXPECT_TRUE(decapsulate(pkt).has_value());
}

TEST(PacketTest, CorruptionDetected) {
  capi::Command cmd;
  cmd.opcode = capi::Opcode::kReadResponse;
  auto pkt = encapsulate(0, 1, 5, cmd);
  pkt.payload[3] ^= 0x10;
  EXPECT_FALSE(decapsulate(pkt).has_value());
}

TEST(PacketTest, LengthMismatchDetected) {
  capi::Command cmd;
  auto pkt = encapsulate(0, 1, 5, cmd);
  pkt.payload.push_back(0);
  EXPECT_FALSE(decapsulate(pkt).has_value());
}

// --- link ----------------------------------------------------------------

TEST(LinkTest, SerializationPlusPropagation) {
  LinkConfig cfg;
  cfg.bandwidth = sim::Bandwidth{1e9};  // 1 GB/s: 1 ns/byte
  cfg.propagation = sim::from_ns(500);
  Link link(cfg);
  EXPECT_EQ(link.transmit(0, 1000), sim::from_ns(1500));
  // Next packet queues behind the first's serialization (not propagation).
  EXPECT_EQ(link.transmit(0, 1000), sim::from_ns(2500));
  EXPECT_EQ(link.bytes_sent(), 2000u);
  EXPECT_EQ(link.packets_sent(), 2u);
}

TEST(LinkTest, HundredGigDefaults) {
  Link link(LinkConfig{});
  // 128 B at 12.5 GB/s = 10.24 ns serialization + 300 ns propagation.
  const auto t = link.transmit(0, 128);
  EXPECT_NEAR(sim::to_ns(t), 310.24, 0.1);
}

// --- network ---------------------------------------------------------------

TEST(NetworkTest, DirectRoute) {
  Network net;
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  net.connect(a, b, LinkConfig{});
  EXPECT_TRUE(net.has_route(a, b));
  EXPECT_FALSE(net.has_route(b, a)) << "links are unidirectional";
  const auto t = net.deliver_ex(0, a, b, 128).arrival;
  EXPECT_GT(t, 0u);
}

TEST(NetworkTest, MultiHopAccumulatesDelay) {
  Network net;
  const auto a = net.add_node("a");
  const auto sw = net.add_node("switch");
  const auto b = net.add_node("b");
  LinkConfig cfg;
  cfg.bandwidth = sim::Bandwidth{1e9};
  cfg.propagation = sim::from_ns(100);
  net.connect(a, sw, cfg);
  net.connect(sw, b, cfg);
  // 100 bytes/hop: (100 ns ser + 100 ns prop) x 2, routed by the table.
  EXPECT_EQ(net.deliver_ex(0, a, b, 100).arrival, sim::from_ns(400));
}

TEST(NetworkTest, SharedHopCreatesContention) {
  Network net;
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  const auto sw = net.add_node("switch");
  const auto dst = net.add_node("dst");
  LinkConfig cfg;
  cfg.bandwidth = sim::Bandwidth{1e9};
  cfg.propagation = 0;
  net.connect(a, sw, cfg);
  net.connect(b, sw, cfg);
  net.connect(sw, dst, cfg);
  const auto t1 = net.deliver_ex(0, a, dst, 1000).arrival;
  const auto t2 = net.deliver_ex(0, b, dst, 1000).arrival;
  // Both used the shared sw->dst hop; the second must queue behind the first.
  EXPECT_EQ(t1, sim::from_ns(2000));
  EXPECT_EQ(t2, sim::from_ns(3000));
}

TEST(NetworkTest, RouteValidation) {
  Network net;
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  const auto c = net.add_node("c");
  net.connect(a, b, LinkConfig{});
  EXPECT_FALSE(net.has_route(a, c));
  EXPECT_THROW(net.deliver_ex(0, a, c, 10), std::invalid_argument);
  EXPECT_THROW(net.connect(a, b, LinkConfig{}), std::invalid_argument)
      << "duplicate link";
  EXPECT_THROW(net.connect(a, 7, LinkConfig{}), std::invalid_argument)
      << "unknown node";
  // A link added after a delivery extends the table: a reaches c via b.
  net.connect(b, c, LinkConfig{});
  EXPECT_TRUE(net.has_route(a, c));
  EXPECT_EQ(net.deliver_ex(0, a, c, 10).arrival,
            2 * Link(LinkConfig{}).transmit(0, 10));
}

// --- latency distributions --------------------------------------------------

TEST(LatencyDistTest, FixedIsConstant) {
  LatencyDistribution d(DistKind::kFixed, sim::from_us(5));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(), sim::from_us(5));
}

TEST(LatencyDistTest, ZeroMeanIsZero) {
  LatencyDistribution d(DistKind::kExponential, 0);
  EXPECT_EQ(d.sample(), 0u);
}

class DistMeanTest : public ::testing::TestWithParam<DistKind> {};

TEST_P(DistMeanTest, SampleMeanMatchesConfiguredMean) {
  const sim::Time mean = sim::from_us(10);
  LatencyDistribution d(GetParam(), mean, 7);
  double sum = 0;
  constexpr int n = 300000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample());
  EXPECT_NEAR(sum / n / static_cast<double>(mean), 1.0, 0.05)
      << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DistMeanTest,
                         ::testing::Values(DistKind::kFixed, DistKind::kUniform,
                                           DistKind::kExponential,
                                           DistKind::kLognormal,
                                           DistKind::kPareto));

TEST(LatencyDistTest, ParseRoundTrip) {
  for (auto kind : {DistKind::kFixed, DistKind::kUniform, DistKind::kExponential,
                    DistKind::kLognormal, DistKind::kPareto}) {
    EXPECT_EQ(parse_dist_kind(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_dist_kind("gaussian"), std::invalid_argument);
}

TEST(LatencyDistTest, HeavyTailHasHigherP99) {
  LatencyDistribution fixed(DistKind::kFixed, sim::from_us(10), 3);
  LatencyDistribution pareto(DistKind::kPareto, sim::from_us(10), 3);
  sim::Time fixed_max = 0, pareto_max = 0;
  for (int i = 0; i < 10000; ++i) {
    fixed_max = std::max(fixed_max, fixed.sample());
    pareto_max = std::max(pareto_max, pareto.sample());
  }
  EXPECT_GT(pareto_max, 2 * fixed_max);
}

}  // namespace
}  // namespace tfsim::net
