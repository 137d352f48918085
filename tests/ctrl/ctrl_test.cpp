#include <gtest/gtest.h>

#include "ctrl/control_plane.hpp"
#include "ctrl/policy.hpp"
#include "ctrl/registry.hpp"
#include "node/cluster.hpp"

namespace tfsim::ctrl {
namespace {

constexpr std::uint64_t kGiB = tfsim::sim::kGiB;

NodeRegistry make_registry() {
  NodeRegistry reg;
  reg.add_node("borrower", 512 * kGiB);   // id 0
  reg.add_node("lender-a", 512 * kGiB);   // id 1
  reg.add_node("lender-b", 256 * kGiB);   // id 2
  reg.add_node("lender-c", 512 * kGiB);   // id 3
  reg.set_role(0, Role::kBorrower);
  reg.set_role(1, Role::kLender);
  reg.set_role(2, Role::kLender);
  reg.set_role(3, Role::kLender);
  return reg;
}

TEST(RegistryTest, RolesAndLendable) {
  auto reg = make_registry();
  EXPECT_EQ(reg.node(0).role, Role::kBorrower);
  EXPECT_EQ(reg.node(1).lendable(0), 512 * kGiB);
  reg.report_load(1, 100 * kGiB, 3, 0.5);
  EXPECT_EQ(reg.node(1).lendable(0), 412 * kGiB);
  EXPECT_EQ(reg.node(1).lendable(12 * kGiB), 400 * kGiB);
  EXPECT_EQ(reg.node(1).running_apps, 3u);
  // Over-committed: lendable clamps to zero.
  reg.report_load(2, 300 * kGiB, 0, 0.0);
  EXPECT_EQ(reg.node(2).lendable(0), 0u);
}

TEST(RegistryTest, LenderCandidatesFilter) {
  auto reg = make_registry();
  reg.report_load(2, 250 * kGiB, 0, 0.0);
  const auto cands = reg.lender_candidates(100 * kGiB, 4 * kGiB);
  EXPECT_EQ(cands, (std::vector<std::uint32_t>{1, 3}))
      << "borrower and full lender excluded";
}

TEST(RegistryTest, BadIdThrows) {
  auto reg = make_registry();
  EXPECT_THROW(reg.node(42), std::out_of_range);
}

TEST(PolicyTest, FirstFitPicksLowestId) {
  auto reg = make_registry();
  FirstFitPolicy p;
  EXPECT_EQ(p.pick(reg, 0, kGiB, {3, 1, 2}), 1u);
  EXPECT_FALSE(p.pick(reg, 0, kGiB, {}).has_value());
}

TEST(PolicyTest, MostFreePicksLargest) {
  auto reg = make_registry();
  reg.report_load(1, 400 * kGiB, 0, 0.0);
  MostFreePolicy p;
  EXPECT_EQ(p.pick(reg, 0, kGiB, {1, 2, 3}), 3u);
}

TEST(PolicyTest, IdlePreferringAvoidsBusyLenders) {
  auto reg = make_registry();
  reg.report_load(1, 0, 10, 0.2);
  reg.report_load(3, 0, 0, 0.2);
  IdlePreferringPolicy p;
  EXPECT_EQ(p.pick(reg, 0, kGiB, {1, 3}), 3u);
}

TEST(PolicyTest, ContentionAwareIgnoresAppCountButCapsBusUtilization) {
  auto reg = make_registry();
  // Paper insight: many running apps is fine; only a saturated bus matters.
  reg.report_load(1, 0, 50, 0.5);   // busy apps, healthy bus
  reg.report_load(3, 0, 0, 0.97);   // idle apps, saturated bus
  ContentionAwarePolicy p(0.9);
  EXPECT_EQ(p.pick(reg, 0, kGiB, {1, 3}), 1u)
      << "must pick the app-busy lender over the bus-saturated one";
  reg.report_load(1, 0, 0, 0.95);
  EXPECT_FALSE(p.pick(reg, 0, kGiB, {1, 3}).has_value())
      << "all buses saturated";
}

TEST(PolicyTest, FactoryKnowsAllNames) {
  for (const char* name :
       {"first-fit", "most-free", "idle-preferring", "contention-aware",
        "slo-aware"}) {
    EXPECT_EQ(make_policy(name)->name(), name);
  }
  EXPECT_THROW(make_policy("round-robin"), std::invalid_argument);
}

// --- control plane -----------------------------------------------------

TEST(ControlPlaneTest, ReserveBooksLenderMemory) {
  auto reg = make_registry();
  ControlPlane cp(reg, std::make_unique<FirstFitPolicy>());
  const auto r = cp.reserve(0, 16 * kGiB, "r1");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->lender, 1u);
  EXPECT_EQ(reg.node(1).lent_out, 16 * kGiB);
  const auto r2 = cp.reserve(0, 16 * kGiB, "r2");
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->lender_base, 16 * kGiB) << "donated space grows linearly";
}

TEST(ControlPlaneTest, NeverLendsToSelf) {
  NodeRegistry reg;
  reg.add_node("only", 512 * kGiB);
  reg.set_role(0, Role::kLender);
  ControlPlane cp(reg, std::make_unique<FirstFitPolicy>());
  EXPECT_FALSE(cp.reserve(0, kGiB, "self").has_value());
}

TEST(ControlPlaneTest, ReleaseReturnsMemory) {
  auto reg = make_registry();
  ControlPlane cp(reg, std::make_unique<FirstFitPolicy>());
  const auto r = cp.reserve(0, 16 * kGiB, "r1");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(cp.release(r->id, nullptr, nullptr));
  EXPECT_EQ(reg.node(1).lent_out, 0u);
  EXPECT_FALSE(cp.release(r->id, nullptr, nullptr));
}

TEST(ControlPlaneTest, AttachProgramsNicAndMap) {
  // Full lifecycle on a real testbed.
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  const auto base = tb.remote_base();
  const auto* region = tb.borrower().memory_map().find(base);
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->backing, mem::Backing::kRemoteDram);
  const auto x = tb.borrower().nic().translator().translate(base + 4096);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(x->lender_addr, 4096u);
}

TEST(ControlPlaneTest, AttachFailsWhenDeviceTimesOut) {
  node::Cluster tb(scenario::paper_two_node());
  tb.set_period(10000);  // beyond the FPGA detection deadline
  EXPECT_FALSE(tb.attach_remote());
  EXPECT_FALSE(tb.remote_attached());
}

TEST(ControlPlaneTest, ReservationTooLargeFails) {
  auto reg = make_registry();
  ControlPlane cp(reg, std::make_unique<FirstFitPolicy>());
  EXPECT_FALSE(cp.reserve(0, 1024 * kGiB, "huge").has_value());
  EXPECT_FALSE(cp.reserve(0, 0, "empty").has_value());
}

TEST(ControlPlaneTest, FindLocatesReservation) {
  auto reg = make_registry();
  ControlPlane cp(reg, std::make_unique<FirstFitPolicy>());
  const auto r = cp.reserve(0, kGiB, "r1");
  ASSERT_TRUE(r.has_value());
  ASSERT_NE(cp.find(r->id), nullptr);
  EXPECT_EQ(cp.find(r->id)->name, "r1");
  EXPECT_EQ(cp.find(9999), nullptr);
}

}  // namespace
}  // namespace tfsim::ctrl
