#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/units.hpp"

namespace tfsim::node {
namespace {

/// The built-in `stem` with `pairs` borrowers and `pairs` lenders.
scenario::ScenarioSpec with_pairs(const char* stem, std::uint32_t pairs) {
  scenario::ScenarioSpec spec = *scenario::builtin(stem);
  spec.set_borrower_count(pairs);
  spec.set_lender_count(pairs);
  return spec;
}

TEST(ClusterTest, TwoNodeSpecMatchesTestbed) {
  Cluster cluster(scenario::paper_two_node());
  ASSERT_EQ(cluster.num_nodes(), 2u);
  ASSERT_EQ(cluster.num_borrowers(), 1u);
  ASSERT_EQ(cluster.num_lenders(), 1u);
  EXPECT_EQ(cluster.borrower().name(), "borrower");
  EXPECT_EQ(cluster.lender().name(), "lender");
  EXPECT_TRUE(cluster.borrower().has_nic());
  EXPECT_FALSE(cluster.lender().has_nic());
  // The AC922 prototype: 512 GiB per node, a 129-entry NIC window at
  // PERIOD 1, 16 GiB hot-plugged from the lender.
  EXPECT_EQ(cluster.borrower().dram().config().capacity_bytes, 512 * sim::kGiB);
  EXPECT_EQ(cluster.lender().dram().config().capacity_bytes, 512 * sim::kGiB);
  EXPECT_EQ(cluster.borrower().nic().config().window_entries, 129u);
  EXPECT_EQ(cluster.period(), 1u);
  ASSERT_TRUE(cluster.attach_remote());
  EXPECT_EQ(cluster.remote_span(), 16 * sim::kGiB);
}

TEST(ClusterTest, FindResolvesExpandedNames) {
  Cluster cluster(*scenario::builtin("pooling_1xN"));
  ASSERT_EQ(cluster.num_nodes(), 5u);
  EXPECT_NE(cluster.find("borrower"), nullptr);
  EXPECT_NE(cluster.find("lender0"), nullptr);
  EXPECT_NE(cluster.find("lender3"), nullptr);
  EXPECT_EQ(cluster.find("lender4"), nullptr);
  EXPECT_EQ(cluster.find("lender"), nullptr) << "count>1 appends the index";
}

TEST(ClusterTest, ChunkedMostFreeStripesAcrossLenders) {
  // 16 GiB in 4 chunks under most-free with equal lenders: each chunk must
  // land on a different lender (round-robin pooling), and the attached
  // window stays contiguous on the borrower.
  Cluster cluster(*scenario::builtin("pooling_1xN"));
  ASSERT_TRUE(cluster.attach_remote());
  EXPECT_EQ(cluster.remote_span(), 16 * sim::kGiB);
  std::set<std::uint64_t> lent;
  for (std::size_t i = 0; i < cluster.num_lenders(); ++i) {
    const auto& info =
        cluster.registry().node(cluster.registry_id(cluster.lender(i)));
    EXPECT_EQ(info.lent_out, 4 * sim::kGiB)
        << "lender " << i << " should host exactly one 4 GiB chunk";
    lent.insert(info.lent_out);
  }
  EXPECT_EQ(lent.size(), 1u) << "striping must be even";
}

TEST(ClusterTest, DumbbellPairsEveryBorrowerWithALender) {
  scenario::ScenarioSpec spec = *scenario::builtin("trunk_contention");
  Cluster cluster(spec);
  ASSERT_EQ(cluster.num_borrowers(), 4u);
  ASSERT_EQ(cluster.num_lenders(), 4u);
  ASSERT_TRUE(cluster.attach_remote());
  for (std::size_t i = 0; i < cluster.num_borrowers(); ++i) {
    EXPECT_GT(cluster.remote_span(i), 0u) << "borrower " << i;
    const auto& info =
        cluster.registry().node(cluster.registry_id(cluster.lender(i)));
    EXPECT_GT(info.lent_out, 0u)
        << "most-free must spread the pairs round-robin";
  }
}

TEST(ClusterTest, SetPeriodReachesEveryBorrowerNic) {
  Cluster cluster(with_pairs("trunk_contention", 2));
  cluster.set_period(64);
  EXPECT_EQ(cluster.period(), 64u);
  for (std::size_t i = 0; i < cluster.num_borrowers(); ++i) {
    EXPECT_EQ(cluster.borrower(i).nic().period(), 64u) << "borrower " << i;
  }
}

// Regression for the Fig. 4 reliability cliff through the Cluster path:
// the hot-plug handshake must still time out at extreme PERIOD when the
// testbed is assembled from a scenario instead of the legacy wiring.
TEST(ClusterTest, AttachTimesOutAtExtremePeriod) {
  scenario::ScenarioSpec dead = scenario::paper_two_node();
  dead.injector.period = 10000;
  Cluster lost(dead);
  EXPECT_FALSE(lost.attach_remote());
  EXPECT_FALSE(lost.remote_attached());

  scenario::ScenarioSpec slow = scenario::paper_two_node();
  slow.injector.period = 1000;
  Cluster ok(slow);
  EXPECT_TRUE(ok.attach_remote());
}

// --- leaf/spine fabric ------------------------------------------------------

// A small rack: 3 borrower-lender pairs over 2 leaves x 2 spines.  With
// B=3 not divisible by L=2, borrower i and lender i always land on
// opposite leaves, so every remote access crosses a spine.
scenario::ScenarioSpec small_rack() {
  scenario::ScenarioSpec spec = with_pairs("leafspine_rack128", 3);
  spec.topology.leaves = 2;
  spec.topology.spines = 2;
  spec.pdes.threads = 0;  // one shared calendar
  return spec;
}

net::NodeId find_net_node(net::Network& net, const std::string& name) {
  for (net::NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node_name(id) == name) return id;
  }
  throw std::invalid_argument("no network node named " + name);
}

TEST(ClusterLeafSpineTest, BuildsSwitchTierBehindTheHosts) {
  Cluster cluster(small_rack());
  ASSERT_EQ(cluster.num_nodes(), 6u);
  auto& net = cluster.network();
  EXPECT_EQ(net.num_nodes(), 10u) << "6 hosts + 2 leaves + 2 spines";
  for (net::NodeId id = 0; id < 6; ++id) EXPECT_FALSE(net.is_switch(id));
  for (net::NodeId id = 6; id < 10; ++id) EXPECT_TRUE(net.is_switch(id));
  const auto leaf0 = find_net_node(net, "leafspine-rack/leaf0");
  const auto spine1 = find_net_node(net, "leafspine-rack/spine1");
  EXPECT_TRUE(net.has_link(leaf0, spine1));
  // Every borrower reaches every lender through the table, both ways.
  for (std::size_t b = 0; b < cluster.num_borrowers(); ++b) {
    for (std::size_t l = 0; l < cluster.num_lenders(); ++l) {
      EXPECT_TRUE(net.has_route(cluster.borrower(b).net_id(),
                                cluster.lender(l).net_id()));
      EXPECT_TRUE(net.has_route(cluster.lender(l).net_id(),
                                cluster.borrower(b).net_id()));
    }
  }
}

TEST(ClusterLeafSpineTest, RemoteAccessCrossesTheSpineTier) {
  Cluster cluster(small_rack());
  ASSERT_TRUE(cluster.attach_remote());
  for (std::size_t b = 0; b < cluster.num_borrowers(); ++b) {
    const auto t = cluster.borrower(b).nic().remote_access(
        0, cluster.remote_base(b), false);
    ASSERT_TRUE(t.has_value()) << "borrower " << b;
    EXPECT_GT(t->completion, t->issued);
  }
  // The partner lender is on the other leaf, so the round trips must have
  // moved bytes through at least one spine uplink.
  auto& net = cluster.network();
  std::uint64_t spine_bytes = 0;
  for (const char* spine : {"leafspine-rack/spine0", "leafspine-rack/spine1"}) {
    const auto sp = find_net_node(net, spine);
    for (const auto& [port, stats] : net.switch_at(sp).ports()) {
      spine_bytes += stats.bytes;
    }
  }
  EXPECT_GT(spine_bytes, 0u);
}

TEST(ClusterLeafSpineTest, PdesPartitionIncludesSwitchDomains) {
  scenario::ScenarioSpec spec = small_rack();
  spec.pdes.threads = 1;
  Cluster cluster(spec);
  ASSERT_NE(cluster.pdes(), nullptr);
  EXPECT_EQ(cluster.pdes()->num_domains(), 10u)
      << "hosts and switches each own a calendar";
  EXPECT_EQ(cluster.pdes()->lookahead(), cluster.network().min_propagation());
  ASSERT_TRUE(cluster.attach_remote());
  const auto t = cluster.borrower(0).nic().remote_access(
      0, cluster.remote_base(0), false);
  EXPECT_TRUE(t.has_value());
}

// ISSUE 8 satellite: a flapped (hard-down) spine must not strand traffic --
// ECMP re-salting on retry routes around it and the replay ledger drains.
TEST(ClusterLeafSpineTest, FlappedSpineReroutesWithoutHangingReplay) {
  scenario::ScenarioSpec spec = small_rack();
  for (auto& node : spec.nodes) {
    node.nic.replay.retry_timeout = sim::from_us(5.0);
    node.nic.replay.max_retries = 8;
  }
  Cluster cluster(spec);
  ASSERT_TRUE(cluster.attach_remote());

  auto& net = cluster.network();
  const auto spine0 = find_net_node(net, "leafspine-rack/spine0");
  const auto spine1 = find_net_node(net, "leafspine-rack/spine1");
  const auto leaf0 = find_net_node(net, "leafspine-rack/leaf0");
  const auto leaf1 = find_net_node(net, "leafspine-rack/leaf1");
  net::FaultConfig down;
  down.flaps.push_back(net::FlapSpec{0, sim::from_ms(1000.0), 0.0});
  for (const auto leaf : {leaf0, leaf1}) {
    net.enable_faults_on(leaf, spine0, down);
    net.enable_faults_on(spine0, leaf, down);
  }

  std::uint64_t completions = 0, retries = 0;
  for (std::size_t b = 0; b < cluster.num_borrowers(); ++b) {
    auto& nic = cluster.borrower(b).nic();
    for (int i = 0; i < 4; ++i) {
      const auto t = nic.remote_access(sim::from_us(20.0) * (i + 1),
                                       cluster.remote_base(b), i % 2 == 1);
      ASSERT_TRUE(t.has_value()) << "borrower " << b << " access " << i
                                 << " must reroute, not abandon";
      ++completions;
    }
    retries += nic.replay().retries();
    EXPECT_EQ(nic.replay().abandoned(), 0u);
    nic.check_quiesced();
  }
  EXPECT_EQ(completions, 12u);
  EXPECT_GT(retries, 0u)
      << "some first attempt must have struck the dead spine";
  // All surviving traffic squeezed through spine1.
  std::uint64_t alive_bytes = 0;
  for (const auto& [port, stats] : net.switch_at(spine1).ports()) {
    alive_bytes += stats.bytes;
  }
  EXPECT_GT(alive_bytes, 0u);
}

// --- fault wiring ----------------------------------------------------------

TEST(ClusterFaultTest, LinkFaultsReachTheNetwork) {
  scenario::ScenarioSpec spec = scenario::paper_two_node();
  spec.faults.link.loss_rate = 0.01;
  spec.faults.link.seed = 3;
  Cluster cluster(spec);
  EXPECT_TRUE(cluster.network().faults_enabled());

  Cluster pristine(scenario::paper_two_node());
  EXPECT_FALSE(pristine.network().faults_enabled());
}

TEST(ClusterFaultTest, UnknownKillLenderNameRejected) {
  scenario::ScenarioSpec spec = scenario::paper_two_node();
  spec.faults.kill_lender = "no-such-node";
  EXPECT_THROW(Cluster{spec}, std::invalid_argument);
}

TEST(ClusterFaultTest, KilledLenderDetachesGracefully) {
  scenario::ScenarioSpec spec = scenario::paper_two_node();
  spec.faults.kill_lender = "lender";
  spec.faults.kill_at_us = 0.0;
  // Fast retry ladder so the test stays cheap.
  spec.nodes[0].nic.replay.retry_timeout = sim::from_us(5.0);
  spec.nodes[0].nic.replay.max_retries = 1;
  spec.nodes[0].nic.replay.detach_threshold = 2;
  Cluster cluster(spec);
  ASSERT_TRUE(cluster.attach_remote()) << "attach is host-side, still works";

  auto& nic = cluster.borrower().nic();
  const mem::Addr addr = cluster.remote_base();
  EXPECT_FALSE(nic.remote_access(0, addr, false).has_value());
  EXPECT_EQ(nic.detached_lenders(), 0u);
  EXPECT_FALSE(nic.remote_access(sim::from_ms(1.0), addr, false).has_value());
  EXPECT_EQ(nic.detached_lenders(), 1u)
      << "consecutive abandonments detach the dead lender";
  EXPECT_GT(nic.replay().abandoned(), 0u);
  nic.check_quiesced();
}

TEST(ClusterFaultTest, KillLenderMidRun) {
  // The lender dies *after* traffic has flowed: earlier accesses complete,
  // later ones retry into the void and detach.
  scenario::ScenarioSpec spec = scenario::paper_two_node();
  spec.nodes[0].nic.replay.retry_timeout = sim::from_us(5.0);
  spec.nodes[0].nic.replay.max_retries = 1;
  spec.nodes[0].nic.replay.detach_threshold = 2;
  Cluster cluster(spec);
  ASSERT_TRUE(cluster.attach_remote());

  auto& nic = cluster.borrower().nic();
  const mem::Addr addr = cluster.remote_base();
  const auto before = nic.remote_access(0, addr, false);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->retries, 0u);

  cluster.kill_lender(0, sim::from_ms(1.0));
  EXPECT_FALSE(
      nic.remote_access(sim::from_ms(1.0), addr, false).has_value());
  EXPECT_FALSE(
      nic.remote_access(sim::from_ms(2.0), addr, false).has_value());
  EXPECT_EQ(nic.detached_lenders(), 1u);
  nic.check_quiesced();
}

}  // namespace
}  // namespace tfsim::node
