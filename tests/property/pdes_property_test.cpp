// Property tests for the per-node calendars: seeded random fabric traffic
// (golden::random_fabric, whose seeds 1-12 the golden digest table pins) is
// a pure function of its seed, and the Cluster assembly path partitions
// node calendars exactly 1:1 with domain ids, with the lookahead pinned to
// the fabric's minimum link propagation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "golden_runs.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/pdes.hpp"
#include "sim/rng.hpp"
#include "sim/units.hpp"

namespace tfsim {
namespace {

TEST(PdesPropertyTest, RandomTopologiesByteIdenticalAcrossThreadCounts) {
  // Each seed's golden row was captured when 1, 2 and 8 workers agreed on
  // it byte for byte; a fresh fabric per run (link servers carry queueing
  // state) must keep reproducing it.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string name =
        "random_fabric/seed=" + std::to_string(seed) + "/hops=60";
    const golden::Run first = golden::random_fabric(seed, 60);
    const golden::Run again = golden::random_fabric(seed, 60);
    EXPECT_EQ(first.serialized, again.serialized) << "seed " << seed;
    EXPECT_EQ(golden::format_row(name, golden::row_of(first)),
              golden::table_line(name));
  }
}

TEST(PdesPropertyTest, SameSeedReproducesSameDigestDifferentSeedDiffers) {
  const std::string da = golden::random_fabric(42, 40).serialized;
  const std::string db = golden::random_fabric(42, 40).serialized;
  EXPECT_EQ(da, db);
  const std::string dc = golden::random_fabric(43, 40).serialized;
  EXPECT_NE(da, dc) << "seed must steer topology and traffic";
}

// Cluster assembly across random scenario shapes: node index == DomainId,
// every node's calendar is its domain's calendar, and the engine lookahead
// equals the fabric's minimum propagation.
TEST(PdesPropertyTest, ClusterPartitionAlignsNodesAndDomains) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Rng rng(seed * 0xA5A5);
    scenario::ScenarioSpec spec;
    spec.name = "pdes_prop" + std::to_string(seed);
    scenario::NodeDecl borrowers;
    borrowers.name = "b";
    borrowers.role = scenario::Role::kBorrower;
    borrowers.count = static_cast<std::uint32_t>(1 + rng.uniform_u64(4));
    scenario::NodeDecl lenders;
    lenders.name = "l";
    lenders.role = scenario::Role::kLender;
    lenders.count = static_cast<std::uint32_t>(1 + rng.uniform_u64(6));
    spec.nodes = {borrowers, lenders};
    spec.topology.kind = rng.uniform_u64(2) == 0
                             ? scenario::TopologyKind::kDirect
                             : scenario::TopologyKind::kDumbbell;
    spec.topology.link.propagation =
        sim::from_ns(100.0 + rng.uniform(0.0, 400.0));
    spec.topology.trunk.propagation =
        sim::from_ns(100.0 + rng.uniform(0.0, 400.0));
    spec.pdes.threads = 1;

    node::Cluster cluster(spec);
    ASSERT_NE(cluster.pdes(), nullptr) << "seed " << seed;
    // Fabric switches own trailing domains after the hosts.
    EXPECT_EQ(cluster.pdes()->num_domains(),
              cluster.num_nodes() + spec.topology.switch_count());
    EXPECT_EQ(cluster.pdes()->lookahead(),
              cluster.network().min_propagation())
        << "seed " << seed;
    for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
      EXPECT_EQ(&cluster.engine_for(i),
                &cluster.pdes()->domain(static_cast<sim::DomainId>(i)))
          << "seed " << seed << " node " << i;
    }
  }
}

}  // namespace
}  // namespace tfsim
