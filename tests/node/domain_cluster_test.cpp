// Cluster-level tests for the domain-ownership checker: every node gets its
// own domain at assembly, real scenarios run violation-free under strict
// mode, and an injected cross-domain mutation is caught at the exact event
// with a report naming the object and both domains.
#include <gtest/gtest.h>

#include <string>

#include "mem/address.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/domain.hpp"
#include "sim/units.hpp"

namespace tfsim::node {
namespace {

CpuConfig test_cpu() {
  CpuConfig cfg;
  cfg.mlp = 8;
  return cfg;
}

TEST(DomainClusterTest, EveryNodeGetsItsOwnDomain) {
  scenario::ScenarioSpec spec = *scenario::builtin("pooling_1xN");
  spec.set_lender_count(3);
  spec.reservations[0].chunks = 3;
  Cluster cluster(spec);
  EXPECT_EQ(cluster.domains().num_domains(), 4u);
  // Domain ids follow declaration order, and every owned object is bound.
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    Node& n = cluster.node(i);
    ASSERT_TRUE(n.tfsim_domain().bound()) << n.name();
    EXPECT_EQ(cluster.domains().domain_name(n.tfsim_domain().id()), n.name());
    EXPECT_EQ(n.dram().tfsim_domain().id(), n.tfsim_domain().id());
    EXPECT_EQ(n.caches().tfsim_domain().id(), n.tfsim_domain().id());
    if (n.has_nic()) {
      EXPECT_EQ(n.nic().tfsim_domain().id(), n.tfsim_domain().id());
    }
  }
}

TEST(DomainClusterTest, CleanScenarioRunsViolationFreeUnderStrict) {
  Cluster cluster(scenario::paper_two_node());
  cluster.domains().set_mode(sim::DomainCheckMode::kStrict);
  ASSERT_TRUE(cluster.attach_remote());

  MemContext ctx = cluster.make_context(test_cpu());
  const mem::Addr local = cluster.borrower().allocate(4 * sim::kMiB,
                                                      Placement::kLocal);
  const mem::Addr remote = cluster.borrower().allocate(4 * sim::kMiB,
                                                       Placement::kRemote);
  // Local + remote streaming and dependent pointer-chase traffic cross the
  // network boundary thousands of times; under strict mode a single
  // mis-scoped mutation would throw.
  ctx.stream(local, 4 * sim::kMiB, /*write=*/true);
  ctx.stream(remote, 4 * sim::kMiB, /*write=*/false);
  for (int i = 0; i < 64; ++i) {
    ctx.read(remote + static_cast<mem::Addr>(i) * 4096, /*dependent=*/true);
  }
  ctx.drain();
  EXPECT_GT(ctx.stats().remote_misses, 0u);
  EXPECT_TRUE(cluster.domains().clean());
}

TEST(DomainClusterTest, MigrationRunsViolationFreeUnderStrict) {
  Cluster cluster(scenario::paper_two_node());
  cluster.domains().set_mode(sim::DomainCheckMode::kStrict);
  ASSERT_TRUE(cluster.attach_remote());

  MigrationConfig mcfg;
  mcfg.page_bytes = 64 * sim::kKiB;
  mcfg.hot_threshold = 4;
  mcfg.min_hot_epochs = 2;
  mcfg.epoch_accesses = 256;
  cluster.borrower().enable_migration(mcfg);
  ASSERT_TRUE(cluster.borrower().migrator()->tfsim_domain().bound())
      << "daemons enabled after bind_domain must inherit the domain";

  MemContext ctx = cluster.make_context(test_cpu());
  const mem::Addr remote = cluster.borrower().allocate(1 * sim::kMiB,
                                                       Placement::kRemote);
  // Hammer one page until the daemon migrates it; the copy loop issues
  // remote reads + local writes, all inside borrower-domain guards.  The
  // invalidate defeats the caches so every read reaches the miss path (it
  // runs outside any guard, like any test poking state directly).
  for (int i = 0; i < 4096; ++i) {
    const mem::Addr a =
        remote + static_cast<mem::Addr>(i % 16) * mem::kCacheLineBytes;
    ctx.read(a, /*dependent=*/true);
    cluster.borrower().caches().invalidate(a);
  }
  ctx.drain();
  EXPECT_GT(cluster.borrower().migrator()->stats().pages_migrated, 0u);
  EXPECT_TRUE(cluster.domains().clean());
}

TEST(DomainClusterTest, InjectedCrossDomainMutationCaughtAtExactEvent) {
  Cluster cluster(scenario::paper_two_node());
  cluster.domains().set_mode(sim::DomainCheckMode::kCollect);
  ASSERT_TRUE(cluster.attach_remote());

  // Advance the engine to a known point so the report's event context is
  // checkable.
  cluster.engine().schedule_at(sim::from_us(5.0), [] {});
  cluster.engine().run();
  const sim::Time t_inject = cluster.engine().now();
  const std::uint64_t events_before = cluster.engine().executed();

  // Inject the PDES-breaking bug: borrower-side code mutates the lender's
  // DRAM directly instead of going through the NIC/network boundary.
  {
    const sim::DomainGuard g(&cluster.domains(),
                             cluster.borrower().tfsim_domain().id(),
                             "test:injected");
    cluster.lender().dram().access(t_inject, mem::kCacheLineBytes);
  }

  ASSERT_EQ(cluster.domains().total(), 1u);
  const sim::DomainViolation& v = cluster.domains().violations().front();
  EXPECT_EQ(v.object, "lender/dram");
  EXPECT_EQ(v.what, "Dram::access");
  EXPECT_EQ(v.owner_name, "lender");
  EXPECT_EQ(v.active_name, "borrower");
  EXPECT_EQ(v.guard_label, "test:injected");
  EXPECT_EQ(v.when, t_inject) << "violation must carry the exact sim time";
  EXPECT_EQ(v.event_index, events_before)
      << "violation must carry the exact event index";
}

TEST(DomainClusterTest, StrictModeThrowsOnInjectedMutation) {
  Cluster cluster(scenario::paper_two_node());
  cluster.domains().set_mode(sim::DomainCheckMode::kStrict);
  ASSERT_TRUE(cluster.attach_remote());
  const sim::DomainGuard g(&cluster.domains(),
                           cluster.borrower().tfsim_domain().id(),
                           "test:injected");
  EXPECT_THROW(cluster.lender().dram().access(0, mem::kCacheLineBytes),
               sim::DomainError);
}

TEST(DomainClusterTest, NicHandoffEntersLenderDomain) {
  // The one legal cross-node mutation path: the NIC touching lender DRAM
  // inside its net:deliver guard.  A borrower-domain guard is already open
  // (ctx:miss); if attempt_once did not switch domains, every remote miss
  // would throw under strict.
  Cluster cluster(scenario::paper_two_node());
  cluster.domains().set_mode(sim::DomainCheckMode::kStrict);
  ASSERT_TRUE(cluster.attach_remote());
  MemContext ctx = cluster.make_context(test_cpu());
  const mem::Addr remote = cluster.borrower().allocate(256 * sim::kKiB,
                                                       Placement::kRemote);
  EXPECT_NO_THROW(ctx.stream(remote, 256 * sim::kKiB, /*write=*/false));
  ctx.drain();
  EXPECT_GT(cluster.lender().dram().requests(), 0u);
  EXPECT_TRUE(cluster.domains().clean());
}

TEST(DomainClusterTest, OffModeCostsNothingAndCatchesNothing) {
  Cluster cluster(scenario::paper_two_node());
  cluster.domains().set_mode(sim::DomainCheckMode::kOff);
  ASSERT_TRUE(cluster.attach_remote());
  const sim::DomainGuard g(&cluster.domains(),
                           cluster.borrower().tfsim_domain().id(), "x");
  EXPECT_NO_THROW(cluster.lender().dram().access(0, mem::kCacheLineBytes));
  EXPECT_TRUE(cluster.domains().clean());
}

}  // namespace
}  // namespace tfsim::node
