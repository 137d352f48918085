// Topology-layer coverage: destination-based routing tables, deterministic
// ECMP striping, switch egress admission, the leaf/spine builder, and
// hop-by-hop PDES forwarding (post_routed) over shared switches.
#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden_runs.hpp"
#include "net/network.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/pdes.hpp"

namespace tfsim::net {
namespace {

LinkConfig gig_link(double bytes_per_sec, double prop_ns) {
  LinkConfig cfg;
  cfg.bandwidth = sim::Bandwidth{bytes_per_sec};
  cfg.propagation = sim::from_ns(prop_ns);
  return cfg;
}

// --- routing table ---------------------------------------------------------

TEST(RoutingTableTest, MultiHopChainForwardsWithoutExplicitRoutes) {
  // a -> s1 -> s2 -> s3 -> b: four hops, routed by the table alone.
  Network net;
  const auto a = net.add_node("a");
  const auto s1 = net.add_node("s1");
  const auto s2 = net.add_node("s2");
  const auto s3 = net.add_node("s3");
  const auto b = net.add_node("b");
  const auto cfg = gig_link(1e9, 100);  // 1 ns/byte + 100 ns
  net.connect(a, s1, cfg);
  net.connect(s1, s2, cfg);
  net.connect(s2, s3, cfg);
  net.connect(s3, b, cfg);
  net.build_routes();
  EXPECT_TRUE(net.has_route(a, b));
  EXPECT_FALSE(net.has_route(b, a)) << "links are unidirectional";
  // 100 bytes/hop: (100 ns ser + 100 ns prop) x 4.
  EXPECT_EQ(net.deliver_ex(0, a, b, 100).arrival, sim::from_ns(800));
}

TEST(RoutingTableTest, UnknownDestinationThrows) {
  Network net;
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  const auto island = net.add_node("island");
  net.connect(a, b, LinkConfig{});
  net.build_routes();
  EXPECT_FALSE(net.has_route(a, island));
  EXPECT_THROW(net.deliver_ex(0, a, island, 64), std::invalid_argument);
  sim::PdesConfig pc;
  pc.threads = 1;
  sim::ParallelEngine pdes(net.num_nodes(), pc);
  EXPECT_THROW(net.post_routed(pdes, 0, a, island, 64, sim::Priority::kBulk,
                               0, [](const Delivery&) {}),
               std::invalid_argument);
  EXPECT_THROW(net.routing().pick(a, island, a, 0), std::invalid_argument);
}

TEST(RoutingTableTest, LazyRebuildAfterTopologyChange) {
  Network net;
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  const auto c = net.add_node("c");
  net.connect(a, b, LinkConfig{});
  EXPECT_FALSE(net.has_route(a, c));
  net.connect(b, c, LinkConfig{});  // dirties the cached table
  EXPECT_TRUE(net.has_route(a, c));
}

// Builds the same 2-leaf/3-spine fabric inserting links in a different
// order per permutation; the routing decision must not notice.
TEST(RoutingTableTest, EcmpPickInvariantUnderLinkInsertionOrder) {
  const NodeId h0 = 0, h1 = 1, l0 = 2, l1 = 3, sp0 = 4, sp1 = 5, sp2 = 6;
  using Edge = std::pair<NodeId, NodeId>;
  const std::vector<Edge> edges = {
      {h0, l0}, {l0, h0}, {h1, l1}, {l1, h1},
      {l0, sp0}, {sp0, l0}, {l0, sp1}, {sp1, l0}, {l0, sp2}, {sp2, l0},
      {l1, sp0}, {sp0, l1}, {l1, sp1}, {sp1, l1}, {l1, sp2}, {sp2, l1}};

  const auto build = [&](bool reversed) {
    Network net;
    for (const char* n : {"h0", "h1", "l0", "l1", "sp0", "sp1", "sp2"}) {
      net.add_node(n);
    }
    auto order = edges;
    if (reversed) std::reverse(order.begin(), order.end());
    for (const auto& [from, to] : order) net.connect(from, to, LinkConfig{});
    net.build_routes();
    std::ostringstream picks;
    for (std::uint64_t salt = 0; salt < 8; ++salt) {
      picks << net.routing().pick(l0, h1, h0, salt) << ","
            << net.routing().pick(l1, h0, h1, salt) << ";";
    }
    return picks.str();
  };
  EXPECT_EQ(build(false), build(true));
}

TEST(RoutingTableTest, EcmpStripesAcrossParallelSpines) {
  Network net;
  std::vector<NodeId> hosts;
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(net.add_node("h" + std::to_string(i)));
  }
  LeafSpineConfig cfg;
  cfg.leaves = 2;
  cfg.spines = 3;
  const auto fabric = LeafSpineFabric::build(net, cfg, hosts);

  // Across many flows leaving leaf0 for leaf1-resident hosts, every spine
  // candidate should be exercised, and each individual pick must be stable.
  std::set<NodeId> used;
  for (const NodeId src : {hosts[0], hosts[2], hosts[4]}) {
    for (const NodeId dst : {hosts[1], hosts[3], hosts[5]}) {
      for (std::uint64_t salt = 0; salt < 4; ++salt) {
        const NodeId pick =
            net.routing().pick(fabric.leaves[0], dst, src, salt);
        EXPECT_EQ(pick, net.routing().pick(fabric.leaves[0], dst, src, salt));
        used.insert(pick);
      }
    }
  }
  EXPECT_EQ(used.size(), 3u) << "all parallel spines should carry traffic";

  // The salt re-rolls the stripe: some flow must move to a different spine.
  bool resalted = false;
  for (const NodeId dst : {hosts[1], hosts[3], hosts[5]}) {
    const NodeId base = net.routing().pick(fabric.leaves[0], dst, hosts[0], 0);
    for (std::uint64_t salt = 1; salt < 16 && !resalted; ++salt) {
      resalted = net.routing().pick(fabric.leaves[0], dst, hosts[0], salt) !=
                 base;
    }
  }
  EXPECT_TRUE(resalted);
}

// --- switch egress admission ----------------------------------------------

TEST(SwitchTest, ExactDepthAdmitsOneMoreDrops) {
  Link out(gig_link(1e9, 0));  // 1 ns/byte
  SwitchConfig cfg;
  cfg.buffer_bytes = 2000;
  cfg.policy = QueuePolicy::kDrop;
  Switch sw(cfg);
  // Admission compares occupancy + frame against the depth: the frame that
  // lands exactly at buffer_bytes is admitted, the next one is dropped.
  EXPECT_TRUE(sw.admit(7, 0, 1000, out));
  out.transmit(0, 1000);
  EXPECT_TRUE(sw.admit(7, 0, 1000, out)) << "exactly at depth still fits";
  out.transmit(0, 1000);
  EXPECT_FALSE(sw.admit(7, 0, 1000, out)) << "beyond depth tail-drops";
  const PortStats* p = sw.port(7);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->frames, 2u);
  EXPECT_EQ(p->bytes, 2000u);
  EXPECT_EQ(p->drops, 1u);
  EXPECT_EQ(p->peak_queued_bytes, 2000u);
  EXPECT_EQ(sw.total_drops(), 1u);
}

TEST(SwitchTest, BackpressureNeverDrops) {
  Link out(gig_link(1e9, 0));
  SwitchConfig cfg;
  cfg.buffer_bytes = 1000;
  cfg.policy = QueuePolicy::kBackpressure;
  Switch sw(cfg);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(sw.admit(3, 0, 1000, out));
    out.transmit(0, 1000);
  }
  EXPECT_EQ(sw.total_drops(), 0u);
  EXPECT_EQ(sw.port(3)->frames, 8u);
  EXPECT_EQ(sw.port(3)->peak_queued_bytes, 8000u)
      << "the lossless queue grows past the nominal depth";
}

TEST(SwitchTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(parse_queue_policy("drop"), QueuePolicy::kDrop);
  EXPECT_EQ(parse_queue_policy("backpressure"), QueuePolicy::kBackpressure);
  EXPECT_STREQ(to_string(QueuePolicy::kDrop), "drop");
  EXPECT_STREQ(to_string(QueuePolicy::kBackpressure), "backpressure");
  EXPECT_THROW(parse_queue_policy("red"), std::invalid_argument);
}

TEST(SwitchTest, OverflowEndsTraversalWithSwitchDropped) {
  // Two senders funnel into one slow egress behind a shallow drop buffer.
  Network net;
  const auto a1 = net.add_node("a1");
  const auto a2 = net.add_node("a2");
  const auto b = net.add_node("b");
  SwitchConfig sc;
  sc.buffer_bytes = 2048;
  sc.policy = QueuePolicy::kDrop;
  const auto sw = net.add_switch("sw", sc);
  const auto edge = gig_link(1e10, 0);  // fast in
  const auto out = gig_link(1e8, 0);    // 100x slower out
  net.connect(a1, sw, edge);
  net.connect(a2, sw, edge);
  net.connect(sw, b, out);
  net.build_routes();
  std::uint64_t delivered = 0, dropped = 0;
  for (int i = 0; i < 6; ++i) {
    const auto d = net.deliver_ex(0, i % 2 == 0 ? a1 : a2, b, 1000);
    if (d.outcome == FaultOutcome::kSwitchDropped) {
      ++dropped;
    } else {
      EXPECT_TRUE(d.delivered());
      ++delivered;
    }
  }
  EXPECT_GE(delivered, 2u);
  EXPECT_GE(dropped, 1u) << "the shallow buffer must overflow";
  EXPECT_EQ(net.switch_at(sw).total_drops(), dropped);
  EXPECT_EQ(net.switch_at(sw).port(b)->frames, delivered);
}

// --- leaf/spine builder ----------------------------------------------------

TEST(LeafSpineTest, BuildsFullBipartiteTier) {
  Network net;
  std::vector<NodeId> hosts;
  for (int i = 0; i < 8; ++i) {
    hosts.push_back(net.add_node("h" + std::to_string(i)));
  }
  LeafSpineConfig cfg;
  cfg.leaves = 2;
  cfg.spines = 2;
  cfg.prefix = "rack/";
  const auto fabric = LeafSpineFabric::build(net, cfg, hosts);
  ASSERT_EQ(fabric.leaves.size(), 2u);
  ASSERT_EQ(fabric.spines.size(), 2u);
  EXPECT_EQ(net.node_name(fabric.leaves[0]), "rack/leaf0");
  EXPECT_EQ(net.node_name(fabric.spines[1]), "rack/spine1");
  for (const NodeId sw : fabric.leaves) EXPECT_TRUE(net.is_switch(sw));
  for (const NodeId sw : fabric.spines) EXPECT_TRUE(net.is_switch(sw));
  // Host i hangs off leaf (i mod 2), both directions.
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_TRUE(net.has_link(hosts[i], fabric.leaf_of(i)));
    EXPECT_TRUE(net.has_link(fabric.leaf_of(i), hosts[i]));
  }
  // Full leaf x spine bipartite uplinks; no leaf-leaf or spine-spine links.
  for (const NodeId leaf : fabric.leaves) {
    for (const NodeId spine : fabric.spines) {
      EXPECT_TRUE(net.has_link(leaf, spine));
      EXPECT_TRUE(net.has_link(spine, leaf));
    }
  }
  EXPECT_FALSE(net.has_link(fabric.leaves[0], fabric.leaves[1]));
  EXPECT_FALSE(net.has_link(fabric.spines[0], fabric.spines[1]));
  // Every host pair routes from the declared links alone.
  for (const NodeId s : hosts) {
    for (const NodeId d : hosts) {
      if (s != d) {
        EXPECT_TRUE(net.has_route(s, d));
      }
    }
  }
}

TEST(LeafSpineTest, CrossLeafLatencyIsFourHops) {
  Network net;
  std::vector<NodeId> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(net.add_node("h" + std::to_string(i)));
  }
  LeafSpineConfig cfg;
  cfg.leaves = 2;
  cfg.spines = 1;  // single spine: the path is fully determined
  cfg.edge = gig_link(1e9, 100);
  cfg.uplink = gig_link(1e9, 100);
  LeafSpineFabric::build(net, cfg, hosts);
  // h0(leaf0) -> h1(leaf1): host-leaf, leaf-spine, spine-leaf, leaf-host =
  // 4 x (100 ns ser + 100 ns prop) for a 100 B frame.
  EXPECT_EQ(net.deliver_ex(0, hosts[0], hosts[1], 100).arrival,
            sim::from_ns(800));
  // Same-leaf pair stays under its ToR: 2 hops only.
  Network net2;
  std::vector<NodeId> hosts2;
  for (int i = 0; i < 4; ++i) {
    hosts2.push_back(net2.add_node("h" + std::to_string(i)));
  }
  LeafSpineFabric::build(net2, cfg, hosts2);
  EXPECT_EQ(net2.deliver_ex(0, hosts2[0], hosts2[2], 100).arrival,
            sim::from_ns(400));
}

TEST(LeafSpineTest, RejectsDegenerateShapes) {
  Network net;
  const std::vector<NodeId> hosts = {net.add_node("h0")};
  LeafSpineConfig cfg;
  cfg.leaves = 0;
  EXPECT_THROW(LeafSpineFabric::build(net, cfg, hosts),
               std::invalid_argument);
  cfg.leaves = 2;
  cfg.spines = 0;
  EXPECT_THROW(LeafSpineFabric::build(net, cfg, hosts),
               std::invalid_argument);
  cfg.spines = 1;
  EXPECT_THROW(LeafSpineFabric::build(net, cfg, hosts), std::invalid_argument)
      << "fewer hosts than leaves";
}

TEST(LeafSpineTest, FaultDecorationCoversUplinks) {
  Network net;
  std::vector<NodeId> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(net.add_node("h" + std::to_string(i)));
  }
  LeafSpineConfig cfg;
  cfg.leaves = 2;
  cfg.spines = 2;
  const auto fabric = LeafSpineFabric::build(net, cfg, hosts);
  FaultConfig fc;
  fc.loss_rate = 0.5;
  fc.seed = 9;
  net.enable_faults(fc);
  for (const NodeId leaf : fabric.leaves) {
    for (const NodeId spine : fabric.spines) {
      EXPECT_NE(net.faulty_link(leaf, spine), nullptr);
      EXPECT_NE(net.faulty_link(spine, leaf), nullptr);
    }
  }
  EXPECT_NE(net.faulty_link(hosts[0], fabric.leaf_of(0)), nullptr);
}

// --- post_routed (hop-by-hop PDES forwarding) ------------------------------

TEST(PostRoutedTest, MatchesAnalyticDeliveryOnQuietFabric) {
  // One frame on an idle fabric: post_routed must arrive exactly when the
  // serial analytic traversal says, switch hops included.
  const auto build = [](Network& net, std::vector<NodeId>& hosts) {
    for (int i = 0; i < 4; ++i) {
      hosts.push_back(net.add_node("h" + std::to_string(i)));
    }
    LeafSpineConfig cfg;
    cfg.leaves = 2;
    cfg.spines = 1;
    LeafSpineFabric::build(net, cfg, hosts);
  };
  Network ref;
  std::vector<NodeId> ref_hosts;
  build(ref, ref_hosts);
  const sim::Time expected =
      ref.deliver_ex(0, ref_hosts[0], ref_hosts[1], 1024).arrival;

  Network net;
  std::vector<NodeId> hosts;
  build(net, hosts);
  sim::PdesConfig pc;
  pc.threads = 1;
  pc.lookahead = net.min_propagation();
  sim::ParallelEngine pdes(net.num_nodes(), pc);
  sim::Time arrival = 0;
  net.post_routed(pdes, 0, hosts[0], hosts[1], 1024, sim::Priority::kBulk, 0,
                  [&arrival](const Delivery& d) { arrival = d.arrival; });
  pdes.run();
  EXPECT_EQ(arrival, expected);
}

TEST(PostRoutedTest, DirectLinkIsTheOnlyRoute) {
  // a reaches b over a direct link and over a -> sw -> b.  The direct link
  // is the unique shortest path, so deliver_ex (which reads the hop slot)
  // and post_routed (which walks the table) both take it, even though its
  // 5 us propagation makes the two-hop path the faster one.
  struct Graph {
    Network net;
    NodeId a = 0, b = 0, sw = 0;
    Graph() {
      a = net.add_node("a");
      b = net.add_node("b");
      sw = net.add_switch("sw");
      net.connect(a, b, gig_link(1e9, 5000));
      net.connect(a, sw, gig_link(1e9, 100));
      net.connect(sw, b, gig_link(1e9, 100));
    }
  };
  Graph ref;
  const Delivery d = ref.net.deliver_ex(0, ref.a, ref.b, 100);
  EXPECT_TRUE(d.delivered());
  EXPECT_EQ(d.arrival, sim::from_ns(5100));
  EXPECT_EQ(ref.net.routing().next_hops(ref.a, ref.b),
            std::vector<NodeId>{ref.b});
  EXPECT_EQ(ref.net.link(ref.a, ref.sw).packets_sent(), 0u);

  Graph g;
  sim::ParallelEngine pdes(g.net.num_nodes(),
                           sim::PdesConfig{1, g.net.min_propagation()});
  sim::Time arrival = 0;
  g.net.post_routed(pdes, 0, g.a, g.b, 100, sim::Priority::kBulk, 0,
                    [&arrival](const Delivery& r) { arrival = r.arrival; });
  pdes.run();
  EXPECT_EQ(arrival, d.arrival);
  EXPECT_EQ(g.net.link(g.a, g.b).packets_sent(), 1u);
  EXPECT_EQ(g.net.link(g.a, g.sw).packets_sent(), 0u);
}

TEST(PostRoutedTest, ThrowingHopReleasesItsFrame) {
  // A lookahead far above the fabric's propagation delay makes the first
  // hop's cross-domain post land below the horizon, so post() throws.  The
  // frame's slot must be freed on the way out, dropping on_arrival's
  // captures, just as discarding a closure that owned the frame would.
  Network net;
  std::vector<NodeId> hosts;
  for (int i = 0; i < 2; ++i) {
    hosts.push_back(net.add_node("h" + std::to_string(i)));
  }
  LeafSpineConfig cfg;
  cfg.leaves = 1;
  cfg.spines = 1;
  LeafSpineFabric::build(net, cfg, hosts);
  sim::ParallelEngine pdes(net.num_nodes(),
                           sim::PdesConfig{1, 1000 * net.min_propagation()});
  const auto token = std::make_shared<int>(0);
  const auto src = static_cast<sim::DomainId>(hosts[0]);
  pdes.post(src, src, 0, [&] {
    net.post_routed(pdes, pdes.domain(src).now(), hosts[0], hosts[1], 64,
                    sim::Priority::kBulk, 0, [token](const Delivery&) {});
  });
  EXPECT_THROW(pdes.run(), std::logic_error);
  EXPECT_EQ(token.use_count(), 1) << "the failed frame still holds its slot";
}

TEST(PostRoutedTest, ByteIdenticalAcrossThreadCounts) {
  // Bounce chains over a 2x2 leaf/spine with 4 KiB kDrop buffers.  Each
  // seed's golden row was captured when 1 and 8 workers agreed on it byte
  // for byte; fresh fabrics must keep reproducing it, tail drops included.
  for (const std::uint64_t seed : {1ull, 42ull}) {
    const std::string name = "leafspine_fabric/seed=" + std::to_string(seed);
    const golden::Run first = golden::leafspine_fabric(seed);
    const golden::Run again = golden::leafspine_fabric(seed);
    EXPECT_GT(first.events, 0u);
    EXPECT_EQ(first.serialized, again.serialized) << "seed " << seed;
    EXPECT_EQ(golden::format_row(name, golden::row_of(first)),
              golden::table_line(name));
  }
}

}  // namespace
}  // namespace tfsim::net
