#include <gtest/gtest.h>

#include <new>
#include <stdexcept>

#include "node/cluster.hpp"
#include "node/context.hpp"
#include "node/node.hpp"

namespace tfsim::node {
namespace {

TEST(TestbedTest, AssemblesTwoNodePrototype) {
  Cluster tb(scenario::paper_two_node());
  EXPECT_EQ(tb.borrower().name(), "borrower");
  EXPECT_EQ(tb.lender().name(), "lender");
  EXPECT_TRUE(tb.borrower().has_nic());
  EXPECT_FALSE(tb.lender().has_nic());
  EXPECT_FALSE(tb.remote_attached());
  ASSERT_TRUE(tb.attach_remote());
  EXPECT_TRUE(tb.remote_attached());
  EXPECT_TRUE(tb.attach_remote()) << "idempotent";
}

TEST(TestbedTest, SetPeriodReachesInjector) {
  Cluster tb(scenario::paper_two_node());
  tb.set_period(123);
  EXPECT_EQ(tb.period(), 123u);
}

TEST(NodeTest, LocalAllocationIsLineAligned) {
  Cluster tb(scenario::paper_two_node());
  Node& n = tb.borrower();
  const auto a = n.allocate(100, Placement::kLocal);
  const auto b = n.allocate(100, Placement::kLocal);
  EXPECT_EQ(a % mem::kCacheLineBytes, 0u);
  EXPECT_EQ(b % mem::kCacheLineBytes, 0u);
  EXPECT_GE(b - a, 128u) << "allocations must not share a line";
}

TEST(NodeTest, RemoteAllocationRequiresAttach) {
  Cluster tb(scenario::paper_two_node());
  EXPECT_THROW(tb.borrower().allocate(4096, Placement::kRemote),
               std::bad_alloc);
  ASSERT_TRUE(tb.attach_remote());
  const auto addr = tb.borrower().allocate(4096, Placement::kRemote);
  EXPECT_GE(addr, tb.remote_base());
}

TEST(NodeTest, AutoSpillsToRemote) {
  scenario::ScenarioSpec spec = scenario::paper_two_node();
  spec.nodes[0].dram.capacity_bytes = 1 * sim::kMiB;  // tiny local borrower
  spec.reservations[0].size_gib = 1;
  Cluster tb(spec);
  ASSERT_TRUE(tb.attach_remote());
  Node& n = tb.borrower();
  const auto local = n.allocate(512 * sim::kKiB, Placement::kAuto);
  EXPECT_LT(local, 1 * sim::kMiB);
  const auto spilled = n.allocate(2 * sim::kMiB, Placement::kAuto);
  EXPECT_GE(spilled, tb.remote_base()) << "local exhausted: spill to remote";
}

TEST(NodeTest, FreeBytesTracksAllocation) {
  Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  Node& n = tb.borrower();
  const auto before = n.free_bytes(mem::Backing::kRemoteDram);
  n.allocate(1 * sim::kMiB, Placement::kRemote);
  EXPECT_EQ(n.free_bytes(mem::Backing::kRemoteDram), before - sim::kMiB);
}

// --- MemContext --------------------------------------------------------

struct ContextFixture {
  Cluster tb{scenario::paper_two_node()};
  mem::Addr remote;
  ContextFixture() {
    tb.attach_remote();
    remote = tb.remote_base();
  }
  MemContext make(std::uint32_t mlp = 8) {
    return MemContext(tb.borrower(), CpuConfig{mlp, sim::from_ns(1)}, "t");
  }
};

TEST(ContextTest, CacheHitIsCheap) {
  ContextFixture f;
  auto ctx = f.make();
  ctx.access(f.remote, false, true);  // cold miss, dependent
  const auto after_miss = ctx.now();
  ctx.access(f.remote, false, true);  // L1 hit
  const auto hit_cost = ctx.now() - after_miss;
  EXPECT_GT(after_miss, sim::from_ns(500)) << "remote miss ~1 us";
  EXPECT_LT(hit_cost, sim::from_ns(10)) << "hit is nanoseconds";
  EXPECT_EQ(ctx.stats().remote_misses, 1u);
  EXPECT_EQ(ctx.stats().cache_hits(), 1u);
}

TEST(ContextTest, DependentMissesSerialize) {
  // Each measurement gets a fresh testbed: NIC/link server state from one
  // run must not pollute the other.
  ContextFixture fd;
  auto dep = fd.make();
  for (int i = 0; i < 16; ++i) {
    dep.access(fd.remote + static_cast<mem::Addr>(i) * 128, false, true);
  }
  dep.drain();

  ContextFixture fi;
  auto indep = fi.make();
  for (int i = 0; i < 16; ++i) {
    indep.access(fi.remote + static_cast<mem::Addr>(i) * 128, false, false);
  }
  indep.drain();
  EXPECT_GT(dep.now(), indep.now() * 4)
      << "dependent chain must be far slower than overlapped misses";
}

TEST(ContextTest, MlpBoundsOutstanding) {
  ContextFixture fn;
  auto narrow_ctx = fn.make(/*mlp=*/2);
  for (int i = 0; i < 8; ++i) {
    narrow_ctx.access(fn.remote + static_cast<mem::Addr>(i) * 128, false,
                      false);
  }
  narrow_ctx.drain();
  const auto narrow = narrow_ctx.now();

  ContextFixture fw;
  auto wide = fw.make(/*mlp=*/8);
  for (int i = 0; i < 8; ++i) {
    wide.access(fw.remote + static_cast<mem::Addr>(i) * 128, false, false);
  }
  wide.drain();
  EXPECT_GT(narrow, wide.now() * 2);
  EXPECT_GT(narrow_ctx.stats().stall_time, 0u);
}

TEST(ContextTest, WritebacksArePosted) {
  ContextFixture f;
  auto ctx = f.make(32);
  // Dirty far more remote lines than the hierarchy can hold.
  const std::uint64_t lines = 4 * (10 * sim::kMiB / 128);
  for (std::uint64_t i = 0; i < lines; ++i) {
    ctx.write(f.remote + i * 128);
  }
  ctx.drain();
  EXPECT_GT(ctx.stats().posted_writebacks, lines / 2);
  EXPECT_GT(f.tb.borrower().nic().writes(), 0u);
}

TEST(ContextTest, StreamTouchesEveryLine) {
  ContextFixture f;
  auto ctx = f.make();
  ctx.stream(f.remote + 100, 1000, false);  // straddles 9 lines
  EXPECT_EQ(ctx.stats().accesses, mem::lines_spanned(f.remote + 100, 1000));
}

TEST(ContextTest, SeekNeverMovesBackward) {
  ContextFixture f;
  auto ctx = f.make();
  ctx.seek(1000);
  EXPECT_EQ(ctx.now(), 1000u);
  ctx.seek(500);
  EXPECT_EQ(ctx.now(), 1000u);
}

TEST(ContextTest, AdvanceAccumulatesComputeTime) {
  ContextFixture f;
  auto ctx = f.make();
  ctx.advance(sim::from_us(5));
  EXPECT_EQ(ctx.stats().compute_time, sim::from_us(5));
  EXPECT_EQ(ctx.now(), sim::from_us(5));
}

TEST(ContextTest, LocalAccessesDoNotTouchNic) {
  ContextFixture f;
  auto ctx = f.make();
  const auto local = f.tb.borrower().allocate(sim::kMiB, Placement::kLocal);
  for (int i = 0; i < 100; ++i) {
    ctx.access(local + static_cast<mem::Addr>(i) * 128, false, false);
  }
  ctx.drain();
  EXPECT_EQ(ctx.stats().remote_misses, 0u);
  EXPECT_EQ(ctx.stats().local_misses, 100u);
  EXPECT_EQ(f.tb.borrower().nic().reads(), 0u);
}

TEST(ContextTest, LocalMissIssuedBehindRemoteMissesFreesItsSlotFirst) {
  // Two MSHR slots: a remote miss (~1 us) then a local-DRAM miss (~100 ns).
  // The local one completes first, so the next miss waits only for it; the
  // miss after that waits for the remote one.
  ContextFixture f;
  auto ctx = f.make(/*mlp=*/2);
  const auto local = f.tb.borrower().allocate(sim::kMiB, Placement::kLocal);
  ctx.access(f.remote, false, false);
  ctx.access(local, false, false);
  EXPECT_EQ(ctx.stats().stall_time, 0u);
  ctx.access(f.remote + 128, false, false);
  EXPECT_GT(ctx.stats().stall_time, 0u) << "both slots were busy";
  EXPECT_GT(ctx.now(), sim::from_ns(95)) << "waited for the local miss";
  EXPECT_LT(ctx.now(), sim::from_ns(500)) << "not for the remote one";
  ctx.access(f.remote + 256, false, false);
  EXPECT_GT(ctx.now(), sim::from_ns(500)) << "now the remote miss frees";
  ctx.drain();
  EXPECT_EQ(ctx.stats().local_misses, 1u);
  EXPECT_EQ(ctx.stats().remote_misses, 3u);
}

TEST(ContextTest, ZeroMlpRejected) {
  Cluster tb(scenario::paper_two_node());
  EXPECT_THROW(MemContext(tb.borrower(), CpuConfig{0, sim::from_ns(1)}, "t"),
               std::invalid_argument);
}

TEST(ContextTest, AdvancePastTheEndOfTimeThrows) {
  ContextFixture f;
  auto ctx = f.make();
  ctx.seek(sim::kTimeNever - 10);
  ctx.advance(10);
  EXPECT_EQ(ctx.now(), sim::kTimeNever);
  EXPECT_THROW(ctx.advance(1), std::logic_error);
}

TEST(ContextTest, IssueCostPastTheEndOfTimeThrows) {
  ContextFixture f;
  auto ctx = f.make();  // issue cost 1 ns
  const auto local = f.tb.borrower().allocate(sim::kMiB, Placement::kLocal);
  ctx.seek(sim::kTimeNever - sim::from_ns(1) + 1);
  EXPECT_THROW(ctx.access(local, false, false), std::logic_error);
}

TEST(ContextTest, ResetStatsClears) {
  ContextFixture f;
  auto ctx = f.make();
  ctx.access(f.remote, false, false);
  ctx.reset_stats();
  EXPECT_EQ(ctx.stats().accesses, 0u);
  EXPECT_EQ(ctx.stats().level_hits.size(),
            f.tb.borrower().caches().num_levels());
}

}  // namespace
}  // namespace tfsim::node
