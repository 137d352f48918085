#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "mem/dram.hpp"
#include "net/network.hpp"
#include "nic/injector.hpp"
#include "nic/nic.hpp"
#include "nic/timeout.hpp"
#include "nic/translator.hpp"
#include "nic/window.hpp"

namespace tfsim::nic {
namespace {

// --- translator ----------------------------------------------------------

TEST(TranslatorTest, SegmentMapping) {
  AddressTranslator t;
  t.add_segment(Segment{mem::Range{0x1000, 0x1000}, 0x9000, 3, "seg0"});
  const auto x = t.translate(0x1800);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(x->lender_id, 3u);
  EXPECT_EQ(x->lender_addr, 0x9800u);
  EXPECT_FALSE(t.translate(0x0FFF).has_value());
  EXPECT_FALSE(t.translate(0x2000).has_value());
  EXPECT_EQ(t.mapped_bytes(), 0x1000u);
}

TEST(TranslatorTest, MultipleSegmentsAndRemoval) {
  AddressTranslator t;
  t.add_segment(Segment{mem::Range{0x10000, 0x1000}, 0, 1, "a"});
  t.add_segment(Segment{mem::Range{0x20000, 0x1000}, 0x1000, 2, "b"});
  EXPECT_EQ(t.translate(0x20010)->lender_id, 2u);
  EXPECT_TRUE(t.remove_segment("a"));
  EXPECT_FALSE(t.translate(0x10000).has_value());
  EXPECT_FALSE(t.remove_segment("a"));
}

TEST(TranslatorTest, OverlapRejected) {
  AddressTranslator t;
  t.add_segment(Segment{mem::Range{0x1000, 0x1000}, 0, 1, "a"});
  EXPECT_THROW(
      t.add_segment(Segment{mem::Range{0x1800, 0x1000}, 0, 1, "b"}),
      std::invalid_argument);
}

// --- request window --------------------------------------------------------

TEST(WindowTest, AdmitsImmediatelyWhenNotFull) {
  RequestWindow w(2);
  EXPECT_EQ(w.admission_time(100), 100u);
  w.record_completion(500);
  EXPECT_EQ(w.admission_time(200), 200u);
  w.record_completion(600);
  EXPECT_EQ(w.in_flight(), 2u);
}

TEST(WindowTest, FullWindowWaitsForOldest) {
  RequestWindow w(2);
  w.record_completion(500);
  w.record_completion(600);
  EXPECT_EQ(w.admission_time(100), 500u) << "wait for the oldest completion";
  EXPECT_EQ(w.stalls(), 1u);
  w.record_completion(700);
  EXPECT_EQ(w.in_flight(), 2u) << "oldest retired on overflow push";
}

TEST(WindowTest, RetiresCompletedEntries) {
  RequestWindow w(2);
  w.record_completion(500);
  w.record_completion(600);
  EXPECT_EQ(w.admission_time(650), 650u) << "both retired by now";
  EXPECT_EQ(w.in_flight(), 0u);
}

TEST(WindowTest, OutOfOrderCompletionsRetireCorrectly) {
  // QoS classes let later requests complete earlier; the window must always
  // free slots in completion order, not admission order.
  RequestWindow w(2);
  w.record_completion(900);
  w.record_completion(400);  // overtakes the first
  EXPECT_EQ(w.admission_time(100), 400u) << "earliest completion frees first";
  // That grant consumed the 400 slot; only the 900 entry remains.
  w.record_completion(500);
  EXPECT_EQ(w.admission_time(450), 500u)
      << "grant waits for the earliest remaining completion";
  EXPECT_EQ(w.in_flight(), 1u) << "only the 900 entry left";
}

TEST(WindowTest, LatencyReservationProtectsSensitiveClass) {
  RequestWindow w(4, /*latency_reserved=*/2);
  // Bulk may only hold 2 of the 4 slots.
  EXPECT_EQ(w.admission_time(0, sim::Priority::kBulk), 0u);
  w.record_completion(1000, sim::Priority::kBulk);
  EXPECT_EQ(w.admission_time(0, sim::Priority::kBulk), 0u);
  w.record_completion(1100, sim::Priority::kBulk);
  EXPECT_EQ(w.admission_time(0, sim::Priority::kBulk), 1000u)
      << "bulk capacity exhausted";
  w.record_completion(1200, sim::Priority::kBulk);
  // The latency class still gets in immediately.
  EXPECT_EQ(w.admission_time(0, sim::Priority::kLatency), 0u);
  w.record_completion(900, sim::Priority::kLatency);
  EXPECT_EQ(w.in_flight(), 3u);
}

TEST(WindowTest, ReservationMustLeaveBulkCapacity) {
  EXPECT_THROW(RequestWindow(4, 4), std::invalid_argument);
  EXPECT_THROW(RequestWindow(4, 5), std::invalid_argument);
  RequestWindow ok(4, 3);  // fine
  EXPECT_EQ(ok.latency_reserved(), 3u);
}

TEST(WindowTest, ZeroEntriesRejected) {
  EXPECT_THROW(RequestWindow(0), std::invalid_argument);
}

TEST(WindowTest, LatencyClassBorrowsBulkCapacity) {
  // The reservation is a floor for the latency class, not a ceiling: with
  // 1 of 4 slots reserved, latency traffic may occupy the entire window.
  RequestWindow w(4, /*latency_reserved=*/1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(w.admission_time(0, sim::Priority::kLatency), 0u) << "slot " << i;
    w.record_completion(1000 + static_cast<sim::Time>(i) * 100,
                        sim::Priority::kLatency);
  }
  EXPECT_EQ(w.in_flight(), 4u) << "latency filled every slot";
  // The window is now full for *both* classes.  Bulk holds zero of its
  // 3-slot budget, yet must still wait: no free entries exist.
  EXPECT_EQ(w.admission_time(0, sim::Priority::kBulk), 1000u)
      << "bulk waits for the earliest completion even under its cap";
  EXPECT_EQ(w.stalls(), 1u);
}

TEST(WindowTest, FullWindowVictimIsEarliestAcrossClasses) {
  // When the whole window is occupied, the granted slot is the earliest
  // completion across *both* multisets -- with out-of-order completions
  // interleaved between the classes.
  RequestWindow w(3, /*latency_reserved=*/1);
  EXPECT_EQ(w.admission_time(0, sim::Priority::kBulk), 0u);
  w.record_completion(900, sim::Priority::kBulk);
  EXPECT_EQ(w.admission_time(0, sim::Priority::kBulk), 0u);
  w.record_completion(400, sim::Priority::kBulk);  // overtakes the first
  EXPECT_EQ(w.admission_time(0, sim::Priority::kLatency), 0u);
  w.record_completion(650, sim::Priority::kLatency);
  // Full: bulk {400, 900}, latency {650}.  Earliest is the bulk 400 entry.
  EXPECT_EQ(w.admission_time(100, sim::Priority::kLatency), 400u)
      << "victim chosen across classes, not within the caller's own";
  w.record_completion(700, sim::Priority::kLatency);
  // Full again: bulk {900}, latency {650, 700}.  Bulk is under its 2-slot
  // cap, but the window is full; the earliest entry is now in latency.
  EXPECT_EQ(w.admission_time(450, sim::Priority::kBulk), 650u)
      << "a bulk arrival may victimize the latency multiset";
  w.record_completion(800, sim::Priority::kBulk);
  EXPECT_EQ(w.in_flight(), 3u);
  EXPECT_EQ(w.stalls(), 2u);
}

// Regression: occupancy used to be sampled only after insertion in
// record_completion, never after retirement, so drained states were
// invisible and the mean was biased upward.  Known schedule:
//   admit@0   -> retire none, sample 0; complete@100 -> sample 1
//   admit@50  -> retire none, sample 1; complete@150 -> sample 2
//   admit@200 -> retire both, sample 0; complete@300 -> sample 1
TEST(WindowTest, OccupancySampledOnAdmissionAndCompletion) {
  RequestWindow w(4);
  EXPECT_EQ(w.admission_time(0), 0u);
  w.record_completion(100);
  EXPECT_EQ(w.admission_time(50), 50u);
  w.record_completion(150);
  EXPECT_EQ(w.admission_time(200), 200u);
  w.record_completion(300);
  const auto& occ = w.occupancy_stats();
  EXPECT_EQ(occ.count(), 6u);
  EXPECT_DOUBLE_EQ(occ.mean(), (0.0 + 1 + 1 + 2 + 0 + 1) / 6.0);
  EXPECT_DOUBLE_EQ(occ.min(), 0.0);
  EXPECT_DOUBLE_EQ(occ.max(), 2.0);
}

// --- timeout detector ------------------------------------------------------

TEST(TimeoutTest, Fig4Cliff) {
  TimeoutDetector det;  // defaults: 129 reads, 50 us base, 2 ms deadline
  const sim::Time tclk = sim::clock_period(320e6);
  EXPECT_TRUE(det.probe(1, tclk).detected);
  EXPECT_TRUE(det.probe(1000, tclk).detected) << "~450 us discovery: OK";
  const auto p = det.probe(10000, tclk);
  EXPECT_FALSE(p.detected) << "~4 ms discovery: device lost";
  EXPECT_NEAR(sim::to_ms(p.discovery_time), 4.08, 0.1);
}

// --- event-level injector ----------------------------------------------------

TEST(InjectorTest, PeriodOneTransparent) {
  DelayInjector inj(320e6, 1);
  EXPECT_EQ(inj.admit(12345), 12345u);
  EXPECT_EQ(inj.admit(12345), 12345u) << "no spacing at PERIOD=1";
}

TEST(InjectorTest, SpacingMatchesPeriodTimesClock) {
  DelayInjector inj(320e6, 100);
  const sim::Time interval = inj.interval();
  EXPECT_EQ(interval, sim::clock_period(320e6) * 100);
  const auto t1 = inj.admit(0);
  const auto t2 = inj.admit(0);
  EXPECT_EQ(t2 - t1, interval);
}

TEST(InjectorTest, SetPeriodReconfigures) {
  DelayInjector inj(320e6, 1);
  inj.set_period(1000);
  EXPECT_EQ(inj.period(), 1000u);
  EXPECT_THROW(inj.set_period(0), std::invalid_argument);
}

TEST(InjectorTest, OverflowingPeriodIsRejected) {
  // PERIOD x Tclk must not wrap simulated time; a rejected set_period
  // leaves the gate as it was.
  DelayInjector inj(320e6, 1);
  EXPECT_THROW(inj.set_period(UINT64_MAX), std::invalid_argument);
  EXPECT_EQ(inj.period(), 1u);
  EXPECT_EQ(inj.interval(), inj.clock_period());
  EXPECT_THROW(DelayInjector(320e6, UINT64_MAX / 2), std::invalid_argument);
}

TEST(InjectorTest, SampledDelayPastTheEndOfTimeThrows) {
  auto dist = std::make_unique<net::LatencyDistribution>(
      net::DistKind::kFixed, sim::from_us(3));
  DelayInjector inj(std::move(dist));
  EXPECT_THROW(inj.admit(sim::kTimeNever - 1), std::logic_error);
  EXPECT_EQ(inj.admitted(), 0u);
}

TEST(InjectorTest, DistributionModeAddsSampledDelay) {
  auto dist = std::make_unique<net::LatencyDistribution>(
      net::DistKind::kFixed, sim::from_us(3));
  DelayInjector inj(std::move(dist));
  EXPECT_EQ(inj.mode(), DelayInjector::Mode::kDistribution);
  EXPECT_EQ(inj.admit(1000), 1000 + sim::from_us(3));
  EXPECT_THROW(inj.set_period(5), std::logic_error);
}

TEST(InjectorTest, StatsTrackAddedDelay) {
  DelayInjector inj(320e6, 320);  // interval = 1 us
  inj.admit(0);
  inj.admit(0);  // waits 1 us
  EXPECT_EQ(inj.admitted(), 2u);
  EXPECT_NEAR(inj.added_delay().max(), 1.0, 1e-6);
}

// --- assembled NIC ---------------------------------------------------------

struct NicFixture {
  net::Network network;
  net::NodeId self, lender_node;
  mem::Dram lender_dram{mem::DramConfig{}};
  std::unique_ptr<DisaggNic> nic;

  explicit NicFixture(std::uint64_t period = 1,
                      sim::Time processing = NicConfig{}.processing_latency) {
    self = network.add_node("borrower");
    lender_node = network.add_node("lender");
    network.connect(self, lender_node, net::LinkConfig{});
    network.connect(lender_node, self, net::LinkConfig{});
    NicConfig cfg;
    cfg.period = period;
    cfg.processing_latency = processing;
    nic = std::make_unique<DisaggNic>(cfg, network, self);
    nic->register_lender(7, lender_node, &lender_dram);
    nic->translator().add_segment(
        Segment{mem::Range{0x1000'0000, 16 * sim::kMiB}, 0, 7, "seg"});
    nic->attach();
  }
};

TEST(NicTest, AccessTraceIsOrdered) {
  NicFixture f;
  const auto t = f.nic->remote_access(1000, 0x1000'0000, false);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->issued, 1000u);
  EXPECT_LE(t->issued, t->admitted);
  EXPECT_LE(t->admitted, t->gate_out);
  EXPECT_LT(t->gate_out, t->tx_done);
  EXPECT_LT(t->tx_done, t->mem_done);
  EXPECT_LT(t->mem_done, t->completion);
}

TEST(NicTest, VanillaLatencyIsMicrosecondScale) {
  NicFixture f;
  const auto t = f.nic->remote_access(0, 0x1000'0000, false);
  ASSERT_TRUE(t.has_value());
  const double us = sim::to_us(t->completion - t->issued);
  EXPECT_GT(us, 0.5);
  EXPECT_LT(us, 2.5) << "ThymesisFlow-class unloaded latency";
}

// The NIC's fixed processing cost is added on the way out and on the way
// back; either add throws instead of wrapping simulated time.
TEST(NicTest, ProcessingLatencyPastTheEndOfTimeThrows) {
  constexpr sim::Time kHalf = sim::kTimeNever / 2;
  NicFixture out(1, kHalf);
  EXPECT_THROW(out.nic->remote_access(kHalf + 2, 0x1000'0000, false),
               std::logic_error)
      << "request side: admission + processing wraps";
  NicFixture back(1, kHalf);
  EXPECT_THROW(back.nic->remote_access(0, 0x1000'0000, false),
               std::logic_error)
      << "response side: arrival + processing wraps";
}

TEST(NicTest, UnmappedAddressFails) {
  NicFixture f;
  EXPECT_FALSE(f.nic->remote_access(0, 0x9999'0000, false).has_value());
  EXPECT_EQ(f.nic->failures(), 1u);
}

TEST(NicTest, UnknownLenderFails) {
  NicFixture f;
  f.nic->translator().add_segment(
      Segment{mem::Range{0x5000'0000, 4096}, 0, 99, "bogus-lender"});
  EXPECT_FALSE(f.nic->remote_access(0, 0x5000'0000, false).has_value());
}

TEST(NicTest, DetachedDeviceRefusesAccess) {
  NicFixture f(10000);  // PERIOD beyond the detection deadline
  f.nic->reset_device();
  EXPECT_FALSE(f.nic->attach());
  EXPECT_FALSE(f.nic->remote_access(0, 0x1000'0000, false).has_value());
}

TEST(NicTest, AttachRecoversAfterReset) {
  NicFixture f(10000);
  f.nic->reset_device();
  EXPECT_FALSE(f.nic->attach());
  f.nic->set_period(1);
  EXPECT_FALSE(f.nic->attach()) << "device stays lost until reset";
  f.nic->reset_device();
  EXPECT_TRUE(f.nic->attach());
}

TEST(NicTest, SaturatedLatencyEqualsWindowTimesInterval) {
  // BDP property: with the gate as bottleneck, steady-state latency
  // approaches window_entries x PERIOD x Tclk.
  NicFixture f(1000);
  const auto& cfg = f.nic->config();
  const sim::Time interval = f.nic->injector().interval();
  sim::Time now = 0;
  sim::Time last_latency = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto t = f.nic->remote_access(now, 0x1000'0000 + (i % 1024) * 128u,
                                        false);
    ASSERT_TRUE(t.has_value());
    last_latency = t->completion - t->issued;
    // Saturating caller: issue as fast as the window admits.
    now = t->admitted;
  }
  const double expected_us =
      sim::to_us(interval) * static_cast<double>(cfg.window_entries);
  EXPECT_NEAR(sim::to_us(last_latency), expected_us, expected_us * 0.05);
}

TEST(NicTest, WriteAndReadWireSizesDiffer) {
  NicFixture f;
  f.nic->remote_access(0, 0x1000'0000, false);
  const auto read_out = f.nic->wire_bytes_out();
  const auto read_in = f.nic->wire_bytes_in();
  f.nic->remote_access(1000, 0x1000'0000, true);
  const auto write_out = f.nic->wire_bytes_out() - read_out;
  const auto write_in = f.nic->wire_bytes_in() - read_in;
  // Read: small request out, data response in.  Write: the reverse.
  EXPECT_GT(read_in, read_out);
  EXPECT_GT(write_out, write_in);
  EXPECT_EQ(read_out, write_in) << "command-only packets match";
  EXPECT_EQ(read_in, write_out) << "data-carrying packets match";
  EXPECT_EQ(f.nic->reads(), 1u);
  EXPECT_EQ(f.nic->writes(), 1u);
}

TEST(NicTest, StatsReset) {
  NicFixture f;
  f.nic->remote_access(0, 0x1000'0000, false);
  f.nic->reset_stats();
  EXPECT_EQ(f.nic->reads(), 0u);
  EXPECT_EQ(f.nic->latency_us().count(), 0u);
}

TEST(NicTest, RegisterLenderValidation) {
  net::Network net2;
  const auto a = net2.add_node("a");
  const auto b = net2.add_node("b");
  DisaggNic nic(NicConfig{}, net2, a);
  mem::Dram dram{mem::DramConfig{}};
  EXPECT_THROW(nic.register_lender(0, b, &dram), std::invalid_argument)
      << "no route yet";
  net2.connect(a, b, net::LinkConfig{});
  net2.connect(b, a, net::LinkConfig{});
  EXPECT_THROW(nic.register_lender(0, b, nullptr), std::invalid_argument);
  nic.register_lender(0, b, &dram);  // now fine
}

}  // namespace
}  // namespace tfsim::nic
