#include "workloads/stream/stream.hpp"

#include <gtest/gtest.h>

#include "node/cluster.hpp"
#include "workloads/stream/stream_flow.hpp"

namespace tfsim::workloads {
namespace {

StreamConfig small_stream(std::uint64_t elements = 1'000'000) {
  StreamConfig cfg;
  cfg.elements = elements;  // 24 MB of arrays: misses through the 10 MiB L3
  cfg.placement = node::Placement::kRemote;
  return cfg;
}

TEST(StreamTest, AllKernelsValidateNumerically) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  Stream s(tb.borrower(), small_stream());
  const auto res = s.run();
  ASSERT_EQ(res.kernels.size(), 4u);
  EXPECT_TRUE(res.validated);
  for (const auto& k : res.kernels) {
    EXPECT_TRUE(k.validated) << k.kernel;
    EXPECT_GT(k.bandwidth_gbps, 0.0) << k.kernel;
    EXPECT_GT(k.elapsed, 0u) << k.kernel;
  }
  EXPECT_EQ(res.kernels[0].kernel, "copy");
  EXPECT_EQ(res.kernels[3].kernel, "triad");
}

TEST(StreamTest, MultipleRepetitionsStillValidate) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  auto cfg = small_stream(50'000);
  cfg.repetitions = 3;
  Stream s(tb.borrower(), cfg);
  EXPECT_TRUE(s.run().validated);
}

TEST(StreamTest, BytesCountsMatchStreamConvention) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  const auto cfg = small_stream();
  Stream s(tb.borrower(), cfg);
  const auto res = s.run();
  EXPECT_EQ(res.kernel("copy").bytes, 16 * cfg.elements);
  EXPECT_EQ(res.kernel("scale").bytes, 16 * cfg.elements);
  EXPECT_EQ(res.kernel("add").bytes, 24 * cfg.elements);
  EXPECT_EQ(res.kernel("triad").bytes, 24 * cfg.elements);
  EXPECT_THROW(res.kernel("nope"), std::out_of_range);
}

TEST(StreamTest, DelayInjectionDegradesBandwidthAndRaisesLatency) {
  node::Cluster tb1(scenario::paper_two_node());
  ASSERT_TRUE(tb1.attach_remote());
  Stream fast(tb1.borrower(), small_stream());
  const auto base = fast.run();

  node::Cluster tb2(scenario::paper_two_node());
  tb2.set_period(100);
  ASSERT_TRUE(tb2.attach_remote());
  Stream slow(tb2.borrower(), small_stream());
  const auto degraded = slow.run();

  EXPECT_LT(degraded.best_bandwidth_gbps, base.best_bandwidth_gbps / 5);
  EXPECT_GT(degraded.avg_latency_us, base.avg_latency_us * 5);
  EXPECT_TRUE(degraded.validated) << "results stay correct under delay";
}

TEST(StreamTest, LocalPlacementIsFaster) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  auto remote_cfg = small_stream();
  Stream remote(tb.borrower(), remote_cfg);
  const auto r = remote.run();

  node::Cluster tb2(scenario::paper_two_node());
  auto local_cfg = small_stream();
  local_cfg.placement = node::Placement::kLocal;
  Stream local(tb2.borrower(), local_cfg);
  const auto l = local.run();
  EXPECT_GT(l.best_bandwidth_gbps, r.best_bandwidth_gbps);
}

TEST(StreamTest, FootprintMatchesConfig) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  const auto cfg = small_stream();
  Stream s(tb.borrower(), cfg);
  EXPECT_EQ(s.footprint_bytes(), 3 * cfg.elements * sizeof(double));
}

// --- closed-loop flows ---------------------------------------------------

TEST(StreamFlowTest, RemoteFlowMovesLines) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  FlowConfig cfg;
  cfg.concurrency = 8;
  cfg.base = tb.remote_base();
  cfg.span_bytes = sim::kMiB;
  cfg.stop_at = sim::from_ms(1.0);
  RemoteStreamFlow flow(tb.engine(), tb.borrower().nic(), cfg);
  flow.start();
  tb.engine().run();
  EXPECT_TRUE(flow.finished());
  EXPECT_GT(flow.stats().lines_completed, 100u);
  EXPECT_LE(flow.stats().last_completion,
            cfg.stop_at + sim::from_us(50)) << "stops near the deadline";
}

TEST(StreamFlowTest, BandwidthScalesWithConcurrencyUntilSaturation) {
  auto run_with = [](std::uint32_t lanes) {
    node::Cluster tb(scenario::paper_two_node());
    tb.attach_remote();
    FlowConfig cfg;
    cfg.concurrency = lanes;
    cfg.base = tb.remote_base();
    cfg.span_bytes = 64 * sim::kMiB;
    cfg.stop_at = sim::from_ms(5.0);
    RemoteStreamFlow flow(tb.engine(), tb.borrower().nic(), cfg);
    flow.start();
    tb.engine().run();
    return flow.stats().bandwidth_gbps(cfg.stop_at);
  };
  const double bw8 = run_with(8);
  const double bw32 = run_with(32);
  const double bw256 = run_with(256);
  EXPECT_NEAR(bw32 / bw8, 4.0, 0.5) << "latency-bound region scales linearly";
  EXPECT_LT(bw256, bw32 * 8) << "saturates at the link/window";
}

TEST(StreamFlowTest, TwoFlowsShareEqually) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  FlowConfig cfg;
  cfg.concurrency = 128;
  cfg.base = tb.remote_base();
  cfg.span_bytes = 64 * sim::kMiB;
  cfg.stop_at = sim::from_ms(5.0);
  RemoteStreamFlow f1(tb.engine(), tb.borrower().nic(), cfg);
  FlowConfig cfg2 = cfg;
  cfg2.base = tb.remote_base() + 128 * sim::kMiB;
  RemoteStreamFlow f2(tb.engine(), tb.borrower().nic(), cfg2);
  f1.start();
  f2.start();
  tb.engine().run();
  const double b1 = f1.stats().bandwidth_gbps(cfg.stop_at);
  const double b2 = f2.stats().bandwidth_gbps(cfg.stop_at);
  EXPECT_NEAR(b1 / b2, 1.0, 0.05) << "equal division (Fig. 6 property)";
}

TEST(StreamFlowTest, LocalFlowConsumesLenderBus) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  FlowConfig cfg;
  cfg.concurrency = 16;
  cfg.stop_at = sim::from_ms(1.0);
  LocalStreamFlow flow(tb.engine(), tb.lender().dram(), cfg);
  flow.start();
  tb.engine().run();
  EXPECT_TRUE(flow.finished());
  EXPECT_GT(flow.stats().lines_completed, 1000u);
  EXPECT_GT(tb.lender().dram().utilization(cfg.stop_at), 0.005);
}

}  // namespace
}  // namespace tfsim::workloads
