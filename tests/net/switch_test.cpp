// Switch unit tests: per-port occupancy statistics under kBackpressure
// bursts, tail-drop admission at the exact buffer depth, chaos down/brownout
// windows (kept apart from buffer drops, and honoured when installed after
// traffic), the touched-ports listing, and the enum round-trips report
// parsers lean on (FaultOutcome, HealthClass, QueuePolicy).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/resilience.hpp"
#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/units.hpp"

namespace tfsim::net {
namespace {

constexpr NodeId kPortA = 7;
constexpr NodeId kPortB = 9;
constexpr std::uint64_t kFrame = 1000;

// 8 Gb/s == 1e9 B/s, so a 1000-byte frame serializes in exactly 1 us and
// the occupancy arithmetic below stays in whole bytes.
Link make_link() {
  LinkConfig cfg;
  cfg.bandwidth = sim::Bandwidth::from_gbit(8.0);
  cfg.propagation = sim::from_ns(100.0);
  return Link(cfg, "egress");
}

TEST(SwitchTest, BackpressureBurstTracksPeakAndMeanOccupancy) {
  Switch sw{SwitchConfig{.buffer_bytes = 0, .policy = QueuePolicy::kBackpressure}};
  Link out = make_link();

  // A 6-frame burst at t=0: frame k finds k full frames queued ahead of it
  // (including the one on the wire), and lossless admission takes them all.
  constexpr std::uint64_t kBurst = 6;
  for (std::uint64_t k = 0; k < kBurst; ++k) {
    ASSERT_TRUE(sw.admit(kPortA, 0, kFrame, out));
    out.transmit(0, kFrame);
  }
  const PortStats* p = sw.port(kPortA);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->frames, kBurst);
  EXPECT_EQ(p->bytes, kBurst * kFrame);
  EXPECT_EQ(p->drops, 0u);
  EXPECT_EQ(p->chaos_drops, 0u);
  // Peak is sampled right after admission: the last frame's occupancy plus
  // itself, i.e. the whole burst.
  EXPECT_EQ(p->peak_queued_bytes, kBurst * kFrame);
  // Mean at arrival: (0 + 1 + ... + 5) * kFrame / 6.
  EXPECT_DOUBLE_EQ(p->mean_queued_bytes(),
                   static_cast<double>(kFrame) * (kBurst - 1) / 2.0);

  // After the burst drains, a lone frame sees an empty queue: the peak
  // stays, the mean falls.
  const sim::Time later = sim::from_us(100.0);
  ASSERT_TRUE(sw.admit(kPortA, later, kFrame, out));
  out.transmit(later, kFrame);
  EXPECT_EQ(p->peak_queued_bytes, kBurst * kFrame);
  EXPECT_DOUBLE_EQ(p->mean_queued_bytes(),
                   static_cast<double>(kFrame) * (kBurst - 1) / 2.0 *
                       (static_cast<double>(kBurst) / (kBurst + 1)));
  EXPECT_EQ(sw.total_drops(), 0u);
}

TEST(SwitchTest, DropPolicyAdmitsExactlyAtDepthThenTailDrops) {
  // Buffer holds exactly four frames; the admission rule is occupancy +
  // frame > depth, so the frame landing *exactly* at the depth is admitted.
  Switch sw{SwitchConfig{.buffer_bytes = 4 * kFrame, .policy = QueuePolicy::kDrop}};
  Link out = make_link();

  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(sw.admit(kPortA, 0, kFrame, out)) << "frame " << k;
    out.transmit(0, kFrame);
  }
  // Fifth frame would land at 5 * kFrame > depth: tail-dropped, and the
  // link never sees it.
  EXPECT_FALSE(sw.admit(kPortA, 0, kFrame, out));
  const PortStats* p = sw.port(kPortA);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->frames, 4u);
  EXPECT_EQ(p->drops, 1u);
  EXPECT_EQ(p->chaos_drops, 0u);
  EXPECT_EQ(p->peak_queued_bytes, 4 * kFrame);
  EXPECT_EQ(sw.total_drops(), 1u);
  EXPECT_EQ(sw.total_chaos_drops(), 0u);
}

TEST(SwitchTest, ChaosDownWindowDropsSeparatelyFromTailDrops) {
  Switch sw{SwitchConfig{.policy = QueuePolicy::kBackpressure}};
  Link out = make_link();
  sw.set_down_windows({{.start = sim::from_us(10.0),
                        .duration = sim::from_us(10.0),
                        .bandwidth_factor = 0.0}});

  EXPECT_FALSE(sw.chaos_down(kPortA, sim::from_us(5.0)));
  EXPECT_TRUE(sw.chaos_down(kPortA, sim::from_us(10.0)));
  EXPECT_TRUE(sw.chaos_down(kPortB, sim::from_us(15.0)))
      << "a killed switch is dead on every port";
  EXPECT_FALSE(sw.chaos_down(kPortA, sim::from_us(20.0)))
      << "window end is exclusive";

  ASSERT_TRUE(sw.admit(kPortA, sim::from_us(5.0), kFrame, out));
  out.transmit(sim::from_us(5.0), kFrame);
  EXPECT_FALSE(sw.admit(kPortA, sim::from_us(12.0), kFrame, out));
  ASSERT_TRUE(sw.admit(kPortA, sim::from_us(25.0), kFrame, out));
  out.transmit(sim::from_us(25.0), kFrame);

  const PortStats* p = sw.port(kPortA);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->frames, 2u);
  EXPECT_EQ(p->drops, 0u) << "chaos drops must not pollute the buffer stat";
  EXPECT_EQ(p->chaos_drops, 1u);
  EXPECT_EQ(sw.total_chaos_drops(), 1u);
  EXPECT_EQ(sw.total_drops(), 0u);
}

TEST(SwitchTest, PortBrownoutStretchesOnlyThatPort) {
  Switch sw{SwitchConfig{.policy = QueuePolicy::kBackpressure}};
  sw.set_port_windows(kPortA, {{.start = sim::from_us(0.0),
                                .duration = sim::from_us(10.0),
                                .bandwidth_factor = 0.25}});

  EXPECT_DOUBLE_EQ(sw.service_stretch(kPortA, sim::from_us(5.0)), 4.0);
  EXPECT_DOUBLE_EQ(sw.service_stretch(kPortB, sim::from_us(5.0)), 1.0);
  EXPECT_DOUBLE_EQ(sw.service_stretch(kPortA, sim::from_us(15.0)), 1.0);
  // A browned-out port still admits: degradation is slowness, not loss.
  EXPECT_FALSE(sw.chaos_down(kPortA, sim::from_us(5.0)));

  Link out = make_link();
  ASSERT_TRUE(sw.admit(kPortA, sim::from_us(5.0), kFrame, out));
  EXPECT_EQ(sw.total_chaos_drops(), 0u);
}

TEST(SwitchTest, SwitchWideWindowDominatesPortSchedule) {
  Switch sw{SwitchConfig{.policy = QueuePolicy::kBackpressure}};
  // The port says "degraded", the switch says "dead": dead wins.
  sw.set_port_windows(kPortA, {{.start = sim::from_us(0.0),
                                .duration = sim::from_us(20.0),
                                .bandwidth_factor = 0.5}});
  sw.set_down_windows({{.start = sim::from_us(5.0),
                        .duration = sim::from_us(5.0),
                        .bandwidth_factor = 0.0}});

  EXPECT_DOUBLE_EQ(sw.service_stretch(kPortA, sim::from_us(2.0)), 2.0);
  EXPECT_TRUE(sw.chaos_down(kPortA, sim::from_us(7.0)));
  // Inside a hard-down window there is no stretch -- frames are dropped,
  // not slowed.
  EXPECT_DOUBLE_EQ(sw.service_stretch(kPortA, sim::from_us(7.0)), 1.0);
  EXPECT_DOUBLE_EQ(sw.service_stretch(kPortA, sim::from_us(12.0)), 2.0);
}

TEST(SwitchTest, PortsListTouchedPortsInOrderAndLateWindowsApply) {
  Switch sw{SwitchConfig{.policy = QueuePolicy::kBackpressure}};
  Link out = make_link();
  // Out-of-order first touches, a repeat on a warm port, and an id beyond
  // every earlier one.
  for (const NodeId port : {NodeId{9}, NodeId{2}, NodeId{7}, NodeId{9}}) {
    ASSERT_TRUE(sw.admit(port, 0, kFrame, out));
  }
  ASSERT_TRUE(sw.admit(NodeId{40}, 0, kFrame, out));
  ASSERT_TRUE(sw.admit(NodeId{9}, 0, kFrame, out));

  std::vector<NodeId> ids;
  for (const auto& [id, port] : sw.ports()) ids.push_back(id);
  EXPECT_EQ(ids, (std::vector<NodeId>{2, 7, 9, 40})) << "touched ports only";
  EXPECT_EQ(sw.port(9)->frames, 3u);
  EXPECT_EQ(sw.port(40)->frames, 1u);
  EXPECT_EQ(sw.port(kPortA)->frames, 1u);

  // Chaos windows installed after the first admission still bite.
  sw.set_port_windows(kPortA, {{.start = sim::from_us(100.0),
                                .duration = sim::from_us(10.0),
                                .bandwidth_factor = 0.5}});
  EXPECT_DOUBLE_EQ(sw.service_stretch(kPortA, sim::from_us(105.0)), 2.0);
  EXPECT_DOUBLE_EQ(sw.service_stretch(2, sim::from_us(105.0)), 1.0);
  sw.set_down_windows({{.start = sim::from_us(200.0),
                        .duration = sim::from_us(10.0),
                        .bandwidth_factor = 0.0}});
  EXPECT_FALSE(sw.admit(2, sim::from_us(205.0), kFrame, out));
  EXPECT_EQ(sw.port(2)->chaos_drops, 1u);
  EXPECT_TRUE(sw.admit(2, sim::from_us(215.0), kFrame, out));
  EXPECT_EQ(sw.port(2)->frames, 2u);
}

TEST(SwitchTest, RejectsOverlappingChaosSchedules) {
  Switch sw{SwitchConfig{}};
  std::vector<FlapSpec> overlapping = {
      {.start = sim::from_us(0.0), .duration = sim::from_us(10.0),
       .bandwidth_factor = 0.0},
      {.start = sim::from_us(5.0), .duration = sim::from_us(10.0),
       .bandwidth_factor = 0.5}};
  EXPECT_THROW(sw.set_down_windows(overlapping), std::invalid_argument);
  EXPECT_THROW(sw.set_port_windows(kPortA, overlapping),
               std::invalid_argument);
}

TEST(SwitchTest, FaultOutcomeRoundTrips) {
  for (const FaultOutcome o :
       {FaultOutcome::kDelivered, FaultOutcome::kCorrupted,
        FaultOutcome::kLost, FaultOutcome::kFlapDropped,
        FaultOutcome::kSwitchDropped}) {
    EXPECT_EQ(parse_fault_outcome(to_string(o)), o);
  }
  EXPECT_EQ(std::string(to_string(FaultOutcome::kSwitchDropped)),
            "switch-dropped");
  EXPECT_THROW(parse_fault_outcome("teleported"), std::invalid_argument);
}

TEST(SwitchTest, HealthClassRoundTrips) {
  using core::HealthClass;
  for (const HealthClass h :
       {HealthClass::kHealthy, HealthClass::kRecovering,
        HealthClass::kDegraded, HealthClass::kDetached,
        HealthClass::kDeviceLost}) {
    EXPECT_EQ(core::parse_health_class(core::to_string(h)), h);
  }
  EXPECT_EQ(core::to_string(HealthClass::kDeviceLost), "device-lost");
  EXPECT_THROW(core::parse_health_class("zombie"), std::invalid_argument);
}

TEST(SwitchTest, QueuePolicyRoundTrips) {
  EXPECT_EQ(parse_queue_policy(to_string(QueuePolicy::kDrop)),
            QueuePolicy::kDrop);
  EXPECT_EQ(parse_queue_policy(to_string(QueuePolicy::kBackpressure)),
            QueuePolicy::kBackpressure);
  EXPECT_THROW(parse_queue_policy("random-early"), std::invalid_argument);
}

}  // namespace
}  // namespace tfsim::net
