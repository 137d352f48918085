#include <gtest/gtest.h>

#include <vector>

#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/network.hpp"

namespace tfsim::net {
namespace {

// --- fault plan ----------------------------------------------------------

TEST(FaultPlanTest, SameSeedSameSequence) {
  FaultConfig cfg;
  cfg.loss_rate = 0.3;
  cfg.corrupt_rate = 0.2;
  cfg.seed = 42;
  FaultPlan a(cfg), b(cfg);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.next(0), b.next(0)) << "decision " << i;
  }
  EXPECT_EQ(a.decisions(), 2000u);
}

TEST(FaultPlanTest, DecisionIndependentOfDepartTime) {
  // Decision k is a pure function of (seed, k): the depart time only matters
  // for flap windows, never for the loss/corruption draws.
  FaultConfig cfg;
  cfg.loss_rate = 0.5;
  cfg.seed = 7;
  FaultPlan a(cfg), b(cfg);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.next(0), b.next(sim::from_us(static_cast<double>(i))));
  }
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  FaultConfig a_cfg, b_cfg;
  a_cfg.loss_rate = b_cfg.loss_rate = 0.5;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  FaultPlan a(a_cfg), b(b_cfg);
  int diffs = 0;
  for (int i = 0; i < 500; ++i) {
    if (a.next(0) != b.next(0)) ++diffs;
  }
  EXPECT_GT(diffs, 0) << "independent streams must not be identical";
}

TEST(FaultPlanTest, RatesRoughlyMatchConfig) {
  FaultConfig cfg;
  cfg.loss_rate = 0.1;
  cfg.seed = 3;
  FaultPlan plan(cfg);
  int lost = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (plan.next(0) == FaultOutcome::kLost) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.1, 0.02);
}

TEST(FaultPlanTest, ZeroRatesAlwaysDeliver) {
  FaultPlan plan(FaultConfig{});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.next(0), FaultOutcome::kDelivered);
  }
}

TEST(FaultPlanTest, RateValidation) {
  FaultConfig bad;
  bad.loss_rate = 1.5;
  EXPECT_THROW(FaultPlan{bad}, std::invalid_argument);
  bad.loss_rate = -0.1;
  EXPECT_THROW(FaultPlan{bad}, std::invalid_argument);
  bad.loss_rate = 0.0;
  bad.corrupt_rate = 2.0;
  EXPECT_THROW(FaultPlan{bad}, std::invalid_argument);
}

TEST(FaultPlanTest, FlapValidation) {
  FaultConfig bad;
  bad.flaps.push_back(FlapSpec{0, 0, 0.0});  // zero duration
  EXPECT_THROW(FaultPlan{bad}, std::invalid_argument);
  bad.flaps = {FlapSpec{0, 100, 1.0}};  // factor must stay < 1
  EXPECT_THROW(FaultPlan{bad}, std::invalid_argument);
  bad.flaps = {FlapSpec{0, 100, -0.5}};
  EXPECT_THROW(FaultPlan{bad}, std::invalid_argument);
}

TEST(FaultPlanTest, HardDownFlapWindowIsHalfOpen) {
  FaultConfig cfg;
  cfg.flaps.push_back(FlapSpec{1000, 500, 0.0});
  FaultPlan plan(cfg);
  EXPECT_EQ(plan.next(999), FaultOutcome::kDelivered);
  EXPECT_EQ(plan.next(1000), FaultOutcome::kFlapDropped);
  EXPECT_EQ(plan.next(1499), FaultOutcome::kFlapDropped);
  EXPECT_EQ(plan.next(1500), FaultOutcome::kDelivered) << "end is exclusive";
  EXPECT_EQ(plan.active_flap(1200), &plan.config().flaps[0]);
  EXPECT_EQ(plan.active_flap(1500), nullptr);
}

TEST(FaultPlanTest, HardDownFlapOutranksLoss) {
  // Precedence: a frame sent into a down window is flap-dropped even when
  // the random draw would also have lost it.
  FaultConfig cfg;
  cfg.loss_rate = 1.0;
  cfg.flaps.push_back(FlapSpec{0, 1000, 0.0});
  FaultPlan plan(cfg);
  EXPECT_EQ(plan.next(500), FaultOutcome::kFlapDropped);
  EXPECT_EQ(plan.next(2000), FaultOutcome::kLost);
}

TEST(FaultPlanTest, DegradedFlapDoesNotDropFrames) {
  FaultConfig cfg;
  cfg.flaps.push_back(FlapSpec{0, 1000, 0.5});
  FaultPlan plan(cfg);
  EXPECT_EQ(plan.next(500), FaultOutcome::kDelivered);
  ASSERT_NE(plan.active_flap(500), nullptr);
  EXPECT_FALSE(plan.active_flap(500)->down());
}

TEST(FaultPlanTest, OutcomeNames) {
  EXPECT_STREQ(to_string(FaultOutcome::kDelivered), "delivered");
  EXPECT_STREQ(to_string(FaultOutcome::kCorrupted), "corrupted");
  EXPECT_STREQ(to_string(FaultOutcome::kLost), "lost");
  EXPECT_STREQ(to_string(FaultOutcome::kFlapDropped), "flap-dropped");
}

// --- faulty link ----------------------------------------------------------

LinkConfig one_gig() {
  LinkConfig cfg;
  cfg.bandwidth = sim::Bandwidth{1e9};  // 1 ns/byte
  cfg.propagation = 0;
  return cfg;
}

TEST(FaultyLinkTest, CountersMatchOutcomes) {
  Link link(one_gig());
  FaultConfig cfg;
  cfg.loss_rate = 1.0;
  FaultyLink faulty(link, cfg);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(faulty.transmit(0, 100).outcome, FaultOutcome::kLost);
  }
  EXPECT_EQ(faulty.lost(), 5u);
  EXPECT_EQ(faulty.delivered(), 0u);
}

TEST(FaultyLinkTest, LostFrameStillConsumesWireTime) {
  // The sender serialized the frame before it vanished: the wire is busy
  // and the would-be arrival time is still meaningful for queueing.
  Link link(one_gig());
  FaultConfig cfg;
  cfg.loss_rate = 1.0;
  FaultyLink faulty(link, cfg);
  const auto r = faulty.transmit(0, 1000);
  EXPECT_EQ(r.outcome, FaultOutcome::kLost);
  EXPECT_EQ(r.delivered, sim::from_ns(1000));
  EXPECT_EQ(link.bytes_sent(), 1000u);
  // A second frame queues behind the lost one's serialization.
  EXPECT_EQ(faulty.transmit(0, 1000).delivered, sim::from_ns(2000));
}

TEST(FaultyLinkTest, CorruptedFrameArrivesOnTime) {
  Link link(one_gig());
  FaultConfig cfg;
  cfg.corrupt_rate = 1.0;
  FaultyLink faulty(link, cfg);
  const auto r = faulty.transmit(0, 500);
  EXPECT_EQ(r.outcome, FaultOutcome::kCorrupted);
  EXPECT_EQ(r.delivered, sim::from_ns(500)) << "corruption does not delay";
  EXPECT_EQ(faulty.corrupted(), 1u);
}

TEST(FaultyLinkTest, DegradedFlapStretchesServiceTime) {
  Link link(one_gig());
  FaultConfig cfg;
  cfg.flaps.push_back(FlapSpec{0, sim::from_us(100.0), 0.25});
  FaultyLink faulty(link, cfg);
  // Inside the flap: 1000 B at quarter bandwidth = 4000 ns effective.
  const auto in_flap = faulty.transmit(0, 1000);
  EXPECT_EQ(in_flap.outcome, FaultOutcome::kDelivered);
  EXPECT_EQ(in_flap.delivered, sim::from_ns(4000));
  // Outside the flap the link is back to full speed (fresh link: no queue).
  Link clean(one_gig());
  FaultyLink after(clean, cfg);
  EXPECT_EQ(after.transmit(sim::from_us(200.0), 1000).delivered,
            sim::from_us(200.0) + sim::from_ns(1000));
}

TEST(FaultyLinkTest, HardDownFlapDropsEveryFrameInWindow) {
  Link link(one_gig());
  FaultConfig cfg;
  cfg.flaps.push_back(FlapSpec{0, sim::from_us(10.0), 0.0});
  FaultyLink faulty(link, cfg);
  EXPECT_EQ(faulty.transmit(0, 100).outcome, FaultOutcome::kFlapDropped);
  EXPECT_EQ(faulty.transmit(sim::from_us(20.0), 100).outcome,
            FaultOutcome::kDelivered);
  EXPECT_EQ(faulty.flap_dropped(), 1u);
  EXPECT_EQ(faulty.delivered(), 1u);
}

// --- per-link stream splitting ---------------------------------------------

TEST(FaultSeedTest, SplitIsDeterministicAndEndpointSensitive) {
  EXPECT_EQ(link_fault_seed(1, 2, 3), link_fault_seed(1, 2, 3));
  EXPECT_NE(link_fault_seed(1, 2, 3), link_fault_seed(1, 3, 2))
      << "direction matters";
  EXPECT_NE(link_fault_seed(1, 2, 3), link_fault_seed(2, 2, 3))
      << "base seed matters";
  EXPECT_NE(link_fault_seed(1, 0, 1), link_fault_seed(1, 0, 2));
}

// --- network fault integration ---------------------------------------------

struct FaultNetFixture {
  Network net;
  NodeId a, sw, b;

  FaultNetFixture() {
    a = net.add_node("a");
    sw = net.add_node("switch");
    b = net.add_node("b");
    net.connect(a, sw, one_gig());
    net.connect(sw, b, one_gig());
  }
};

TEST(NetworkFaultTest, EnableFaultsWrapsEveryLink) {
  FaultNetFixture f;
  EXPECT_FALSE(f.net.faults_enabled());
  EXPECT_EQ(f.net.faulty_link(f.a, f.sw), nullptr);
  FaultConfig cfg;
  cfg.loss_rate = 0.5;
  f.net.enable_faults(cfg);
  EXPECT_TRUE(f.net.faults_enabled());
  ASSERT_NE(f.net.faulty_link(f.a, f.sw), nullptr);
  ASSERT_NE(f.net.faulty_link(f.sw, f.b), nullptr);
  // Per-link streams are split off the base seed, not shared.
  EXPECT_NE(f.net.faulty_link(f.a, f.sw)->plan().config().seed,
            f.net.faulty_link(f.sw, f.b)->plan().config().seed);
}

TEST(NetworkFaultTest, PristineDeliverExMatchesDeliver) {
  // Fault-free, the table-routed traversal is the two hops' analytic time:
  // 100 B at 1 ns/byte, no propagation, on each of a->sw and sw->b.
  FaultNetFixture f;
  const auto d = f.net.deliver_ex(0, f.a, f.b, 100);
  EXPECT_TRUE(d.delivered());
  EXPECT_EQ(d.arrival, sim::from_ns(200));
  EXPECT_EQ(f.net.link(f.a, f.sw).packets_sent(), 1u);
  EXPECT_EQ(f.net.link(f.sw, f.b).packets_sent(), 1u);
}

TEST(NetworkFaultTest, LossAtFirstHopEndsTraversal) {
  FaultNetFixture f;
  FaultConfig cfg;
  cfg.loss_rate = 1.0;
  f.net.enable_faults(cfg);
  const auto d = f.net.deliver_ex(0, f.a, f.b, 100);
  EXPECT_EQ(d.outcome, FaultOutcome::kLost);
  // Dropped on hop one: the arrival is the loss point, short of the
  // two-hop path time.
  FaultNetFixture clean;
  EXPECT_LT(d.arrival,
            clean.net.deliver_ex(0, clean.a, clean.b, 100).arrival);
  EXPECT_EQ(f.net.link(f.sw, f.b).packets_sent(), 0u)
      << "the second hop never saw the frame";
}

TEST(NetworkFaultTest, CorruptionTravelsToDestination) {
  // The CRC is only checked at the receiving NIC, so a corrupted frame
  // still crosses every hop and spends the full path time.
  FaultNetFixture f;
  FaultConfig cfg;
  cfg.corrupt_rate = 1.0;
  f.net.enable_faults(cfg);
  const auto d = f.net.deliver_ex(0, f.a, f.b, 100);
  EXPECT_EQ(d.outcome, FaultOutcome::kCorrupted);
  FaultNetFixture clean;
  EXPECT_EQ(d.arrival,
            clean.net.deliver_ex(0, clean.a, clean.b, 100).arrival);
  EXPECT_EQ(f.net.link(f.sw, f.b).packets_sent(), 1u);
}

TEST(NetworkFaultTest, IdenticalSpecsReproduceTheFaultSequence) {
  FaultConfig cfg;
  cfg.loss_rate = 0.3;
  cfg.corrupt_rate = 0.1;
  cfg.seed = 99;
  FaultNetFixture f, g;
  f.net.enable_faults(cfg);
  g.net.enable_faults(cfg);
  for (int i = 0; i < 300; ++i) {
    const auto df = f.net.deliver_ex(0, f.a, f.b, 128);
    const auto dg = g.net.deliver_ex(0, g.a, g.b, 128);
    EXPECT_EQ(df.outcome, dg.outcome) << "frame " << i;
    EXPECT_EQ(df.arrival, dg.arrival) << "frame " << i;
  }
}

// --- flap schedule search ------------------------------------------------

// Linear reference for active_window: first (only, post-validation) window
// covering t.
const FlapSpec* linear_active(const std::vector<FlapSpec>& sorted,
                              sim::Time t) {
  for (const FlapSpec& w : sorted) {
    if (w.start <= t && t < w.end()) return &w;
  }
  return nullptr;
}

TEST(FlapScheduleTest, BinarySearchMatchesLinearReference) {
  // A long pseudo-random schedule (mix64-driven, so the test is a pure
  // function of the constants): windows with random gaps and durations,
  // alternating hard-down and degraded.
  std::vector<FlapSpec> schedule;
  sim::Time cursor = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const sim::Time gap = 1 + mix64(i * 2 + 1) % 1000;
    const sim::Time dur = 1 + mix64(i * 2 + 2) % 500;
    cursor += gap;
    schedule.push_back(FlapSpec{cursor, dur, (i % 2) ? 0.5 : 0.0});
    cursor += dur;
  }
  validate_flap_schedule(schedule, "test schedule");

  // Probe every boundary and its neighbours plus interior points: the
  // binary search must agree with the linear scan everywhere.
  for (const FlapSpec& w : schedule) {
    for (const sim::Time t :
         {w.start - 1, w.start, w.start + w.duration / 2, w.end() - 1,
          w.end()}) {
      EXPECT_EQ(active_window(schedule, t), linear_active(schedule, t))
          << "t=" << t;
    }
  }
  EXPECT_EQ(active_window(schedule, 0), linear_active(schedule, 0));
  EXPECT_EQ(active_window(schedule, cursor + 12345), nullptr);
  EXPECT_EQ(active_window({}, 42), nullptr);
}

TEST(FlapScheduleTest, OverlapRejectionNamesTheWindows) {
  std::vector<FlapSpec> overlapping = {FlapSpec{0, 100, 0.0},
                                       FlapSpec{50, 100, 0.5}};
  try {
    validate_flap_schedule(overlapping, "spine1 down windows");
    FAIL() << "overlap must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spine1 down windows"), std::string::npos) << msg;
    EXPECT_NE(msg.find("windows 0 and 1"), std::string::npos) << msg;
  }

  // Validation sorts first, so declaration order does not hide an overlap.
  std::vector<FlapSpec> reversed = {FlapSpec{50, 100, 0.5},
                                    FlapSpec{0, 100, 0.0}};
  EXPECT_THROW(validate_flap_schedule(reversed, "x"), std::invalid_argument);

  // Back-to-back windows (end == next start) are legal: the boundary
  // instant belongs to the later window only.
  std::vector<FlapSpec> adjacent = {FlapSpec{0, 100, 0.0},
                                    FlapSpec{100, 100, 0.5}};
  validate_flap_schedule(adjacent, "adjacent");
  EXPECT_EQ(active_window(adjacent, 100), &adjacent[1]);
}

}  // namespace
}  // namespace tfsim::net
