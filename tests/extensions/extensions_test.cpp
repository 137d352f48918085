// Tests for the resource-management extensions built on the paper's
// insights: QoS (priority servers, MSHR reservation), hot-page migration,
// and beyond-rack-scale switched topologies.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "node/cluster.hpp"
#include "node/migration.hpp"
#include "sim/server.hpp"
#include "workloads/stream/stream_flow.hpp"

namespace tfsim {
namespace {

// --- PriorityBandwidthServer --------------------------------------------

constexpr sim::Bandwidth kGbps1{1e9};  // 1 ns per byte

TEST(PriorityServerTest, BulkOnlyBehavesLikeFifo) {
  sim::PriorityBandwidthServer s(kGbps1, 0);
  EXPECT_EQ(s.request(0, 1000), sim::from_ns(1000));
  EXPECT_EQ(s.request(0, 1000), sim::from_ns(2000));
  EXPECT_EQ(s.request(sim::from_ns(5000), 100), sim::from_ns(5100));
}

TEST(PriorityServerTest, LatencyClassBypassesBulkBacklog) {
  sim::PriorityBandwidthServer s(kGbps1, 0);
  for (int i = 0; i < 10; ++i) s.request(0, 1000);  // 10 us of bulk backlog
  // A latency-class frame waits at most the residual of one bulk frame.
  const auto done = s.request(0, 100, sim::Priority::kLatency);
  EXPECT_LE(done, sim::from_ns(1000 + 100));
  EXPECT_GE(done, sim::from_ns(100));
}

TEST(PriorityServerTest, LatencyClassStealsBulkCapacity) {
  sim::PriorityBandwidthServer s(kGbps1, 0);
  s.request(0, 1000);                                // bulk until 1000
  s.request(0, 500, sim::Priority::kLatency);        // bypass, 500 ns stolen
  // Next bulk frame sees its queue pushed back by the stolen wire time.
  EXPECT_GE(s.request(0, 1000), sim::from_ns(2500));
}

TEST(PriorityServerTest, LatencyClassFifoAmongItself) {
  sim::PriorityBandwidthServer s(kGbps1, 0);
  const auto a = s.request(0, 1000, sim::Priority::kLatency);
  const auto b = s.request(0, 1000, sim::Priority::kLatency);
  EXPECT_EQ(a, sim::from_ns(1000));
  EXPECT_EQ(b, sim::from_ns(2000));
}

TEST(PriorityServerTest, BacklogPerClass) {
  sim::PriorityBandwidthServer s(kGbps1, 0);
  for (int i = 0; i < 5; ++i) s.request(0, 1000);
  EXPECT_EQ(s.backlog(0, sim::Priority::kBulk), sim::from_ns(5000));
  EXPECT_EQ(s.backlog(0, sim::Priority::kLatency), 0u);
}

// --- end-to-end QoS -------------------------------------------------------

TEST(QosTest, PrioritizedProbeKeepsLowLatencyUnderSaturation) {
  scenario::ScenarioSpec spec = scenario::paper_two_node();
  spec.nodes[0].nic.latency_reserved_entries = 16;  // the borrower
  node::Cluster tb(spec);
  ASSERT_TRUE(tb.attach_remote());
  const sim::Time horizon = sim::from_ms(5.0);

  workloads::FlowConfig bulk_cfg;
  bulk_cfg.concurrency = 128;
  bulk_cfg.base = tb.remote_base();
  bulk_cfg.span_bytes = 256 * sim::kMiB;
  bulk_cfg.stop_at = horizon;
  workloads::RemoteStreamFlow bulk(tb.engine(), tb.borrower().nic(), bulk_cfg);

  workloads::FlowConfig probe_cfg;
  probe_cfg.concurrency = 4;
  probe_cfg.base = tb.remote_base() + 512 * sim::kMiB;
  probe_cfg.span_bytes = 64 * sim::kMiB;
  probe_cfg.stop_at = horizon;
  probe_cfg.priority = sim::Priority::kLatency;
  workloads::RemoteStreamFlow probe(tb.engine(), tb.borrower().nic(), probe_cfg);

  bulk.start();
  probe.start();
  tb.engine().run();

  EXPECT_LT(probe.stats().latency_us.mean(), 1.6)
      << "near-unloaded latency despite bulk saturation";
  EXPECT_GT(bulk.stats().bandwidth_gbps(horizon), 7.0)
      << "bulk keeps most of the link";
}

TEST(QosTest, MemContextPriorityReachesNic) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  node::CpuConfig cpu{4, sim::from_ns(1), sim::Priority::kLatency};
  node::MemContext ctx(tb.borrower(), cpu, "qos");
  ctx.read(tb.remote_base(), /*dependent=*/true);
  EXPECT_EQ(ctx.stats().remote_misses, 1u);  // plumbed without error
}

// --- page migration -------------------------------------------------------

node::MigrationConfig fast_migration() {
  node::MigrationConfig cfg;
  cfg.page_bytes = 4 * sim::kKiB;
  cfg.hot_threshold = 4;
  cfg.min_hot_epochs = 2;
  cfg.epoch_accesses = 64;
  return cfg;
}

TEST(MigrationTest, HotPageMigratesAfterRepeatedEpochs) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  tb.borrower().enable_migration(fast_migration());
  auto* m = tb.borrower().migrator();
  ASSERT_NE(m, nullptr);

  node::MemContext ctx(tb.borrower(), node::CpuConfig{8, sim::from_ns(1)}, "t");
  // Hammer one page across many epochs; sprinkle other traffic so epochs
  // advance.
  const mem::Addr hot = tb.remote_base();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      ctx.read(hot + static_cast<mem::Addr>(i) * 128, true);
      tb.borrower().caches().invalidate(hot + static_cast<mem::Addr>(i) * 128);
    }
    for (int i = 0; i < 64; ++i) {
      ctx.read(tb.remote_base() + sim::kGiB +
               (static_cast<mem::Addr>(round) * 64 + i) * 128);
    }
  }
  ctx.drain();
  EXPECT_GE(m->stats().pages_migrated, 1u);
  EXPECT_GT(m->stats().accesses_served_locally, 0u);
}

TEST(MigrationTest, StreamingPagesDoNotQualify) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  tb.borrower().enable_migration(fast_migration());
  node::MemContext ctx(tb.borrower(), node::CpuConfig{32, sim::from_ns(1)}, "t");
  // One pass over 8 MB: every page touched in exactly one epoch burst.
  ctx.stream(tb.remote_base(), 8 * sim::kMiB, false);
  ctx.drain();
  EXPECT_EQ(tb.borrower().migrator()->stats().pages_migrated, 0u);
}

TEST(MigrationTest, BudgetCapsMigration) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  auto cfg = fast_migration();
  cfg.budget_bytes = cfg.page_bytes;  // exactly one page
  tb.borrower().enable_migration(cfg);
  auto* m = tb.borrower().migrator();

  node::MemContext ctx(tb.borrower(), node::CpuConfig{8, sim::from_ns(1)}, "t");
  for (int round = 0; round < 60; ++round) {
    for (mem::Addr page = 0; page < 4; ++page) {
      // Four hot lines per page per epoch: meets the per-epoch threshold.
      for (mem::Addr l = 0; l < 4; ++l) {
        const mem::Addr addr =
            tb.remote_base() + page * cfg.page_bytes + l * 128;
        ctx.read(addr, true);
        tb.borrower().caches().invalidate(addr);
      }
    }
    for (int i = 0; i < 64; ++i) {
      ctx.read(tb.remote_base() + sim::kGiB +
               (static_cast<mem::Addr>(round) * 64 + i) * 128);
    }
  }
  ctx.drain();
  EXPECT_EQ(m->stats().pages_migrated, 1u);
  EXPECT_GT(m->stats().budget_rejections, 0u);
}

// --- topology ---------------------------------------------------------------

/// `pairs` borrowers, then `pairs` lenders, joined by a dumbbell.
struct Dumbbell {
  net::Network net;
  std::vector<net::NodeId> b, l;
  net::DumbbellFabric topo;
  explicit Dumbbell(std::uint32_t pairs, const net::DumbbellConfig& cfg = {}) {
    for (std::uint32_t i = 0; i < pairs; ++i) b.push_back(net.add_node("b"));
    for (std::uint32_t i = 0; i < pairs; ++i) l.push_back(net.add_node("l"));
    topo = net::DumbbellFabric::build(net, cfg, b, l);
  }
};

TEST(TopologyTest, StarBuildsRoutesBothWays) {
  Dumbbell d(3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(d.net.has_route(d.b[i], d.l[i]));
    EXPECT_TRUE(d.net.has_route(d.l[i], d.b[i]));
    EXPECT_TRUE(d.net.has_link(d.b[i], d.topo.switch_a));
    EXPECT_TRUE(d.net.has_link(d.topo.switch_b, d.l[i]));
  }
  // The switches come after the hosts and apply egress admission.
  EXPECT_EQ(d.net.num_nodes(), 2u * 3u + 2u);
  EXPECT_EQ(d.topo.switch_a, 6u);
  EXPECT_TRUE(d.net.is_switch(d.topo.switch_a));
  EXPECT_TRUE(d.net.is_switch(d.topo.switch_b));
}

TEST(TopologyTest, TrunkIsShared) {
  net::DumbbellConfig cfg;
  cfg.edge.propagation = 0;
  cfg.trunk.propagation = 0;
  cfg.edge.bandwidth = sim::Bandwidth{1e9};
  cfg.trunk.bandwidth = sim::Bandwidth{1e9};
  Dumbbell d(2, cfg);
  const auto t1 = d.net.deliver_ex(0, d.b[0], d.l[0], 1000).arrival;
  const auto t2 = d.net.deliver_ex(0, d.b[1], d.l[1], 1000).arrival;
  // Pair 1's packet queues behind pair 0's on the trunk hop.
  EXPECT_GT(t2, t1);
  EXPECT_EQ(d.net.link(d.topo.switch_a, d.topo.switch_b).packets_sent(), 2u);
}

TEST(TopologyTest, RejectsBadConfigs) {
  net::Network network;
  const std::vector<net::NodeId> one = {network.add_node("x")};
  EXPECT_THROW(net::DumbbellFabric::build(network, {}, {}, one),
               std::invalid_argument)
      << "no borrowers";
  EXPECT_THROW(net::DumbbellFabric::build(network, {}, one, {}),
               std::invalid_argument)
      << "no lenders";
}

// --- bursty flows -------------------------------------------------------------

TEST(BurstyFlowTest, PhasedFlowMovesLessThanSmoothFlow) {
  auto run = [](sim::Time on, sim::Time off) {
    node::Cluster tb(scenario::paper_two_node());
    tb.attach_remote();
    workloads::FlowConfig cfg;
    cfg.concurrency = 32;
    cfg.base = tb.remote_base();
    cfg.span_bytes = 64 * sim::kMiB;
    cfg.stop_at = sim::from_ms(5.0);
    cfg.phase_on = on;
    cfg.phase_off = off;
    workloads::RemoteStreamFlow flow(tb.engine(), tb.borrower().nic(), cfg);
    flow.start();
    tb.engine().run();
    return flow.stats().lines_completed;
  };
  const auto smooth = run(0, 0);
  const auto phased = run(sim::from_us(100), sim::from_us(100));
  EXPECT_LT(phased, smooth * 2 / 3) << "50% duty cycle moves ~half the lines";
  EXPECT_GT(phased, smooth / 4);
}

TEST(BurstyFlowTest, MicroBurstsThrottleThroughput) {
  auto run = [](std::uint64_t burst_lines, sim::Time idle) {
    node::Cluster tb(scenario::paper_two_node());
    tb.attach_remote();
    workloads::FlowConfig cfg;
    cfg.concurrency = 8;
    cfg.base = tb.remote_base();
    cfg.span_bytes = 64 * sim::kMiB;
    cfg.stop_at = sim::from_ms(5.0);
    cfg.burst_lines = burst_lines;
    cfg.idle_mean = idle;
    workloads::RemoteStreamFlow flow(tb.engine(), tb.borrower().nic(), cfg);
    flow.start();
    tb.engine().run();
    return flow.stats().lines_completed;
  };
  EXPECT_LT(run(16, sim::from_us(50)), run(0, 0));
}

// --- DRAM QoS ------------------------------------------------------------------

TEST(DramQosTest, LatencyClassBypassesBulkQueue) {
  mem::DramConfig cfg;
  cfg.bus_bandwidth = sim::Bandwidth::from_gbyte(1.0);  // slow: 128 ns/line
  cfg.access_latency = 0;
  mem::Dram dram(cfg);
  for (int i = 0; i < 100; ++i) dram.access_line(0);  // 12.8 us backlog
  const auto hi = dram.access(0, 128, sim::Priority::kLatency);
  EXPECT_LE(hi, sim::from_ns(2 * 128));
}

}  // namespace
}  // namespace tfsim
