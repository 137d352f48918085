#include "workloads/sim_array.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "node/cluster.hpp"

namespace tfsim::workloads {
namespace {

struct Fixture {
  node::Cluster tb{scenario::paper_two_node()};
  Fixture() { tb.attach_remote(); }
  node::MemContext ctx() {
    return node::MemContext(tb.borrower(), node::CpuConfig{8, 100}, "t");
  }
};

TEST(SimArrayTest, AddressesAreContiguousAndTyped) {
  Fixture f;
  SimArray<double> arr(f.tb.borrower(), 100, node::Placement::kRemote, "a");
  EXPECT_EQ(arr.size(), 100u);
  EXPECT_EQ(arr.bytes(), 800u);
  EXPECT_EQ(arr.addr_of(1) - arr.addr_of(0), sizeof(double));
  EXPECT_EQ(arr.addr_of(0), arr.base());
  EXPECT_GE(arr.base(), f.tb.remote_base());
}

TEST(SimArrayTest, TimedReadReturnsHostValueAndChargesAccess) {
  Fixture f;
  SimArray<int> arr(f.tb.borrower(), 64, node::Placement::kRemote);
  arr[5] = 42;
  auto ctx = f.ctx();
  EXPECT_EQ(arr.read(ctx, 5), 42);
  EXPECT_EQ(ctx.stats().accesses, 1u);
}

TEST(SimArrayTest, TimedWriteUpdatesHost) {
  Fixture f;
  SimArray<int> arr(f.tb.borrower(), 64, node::Placement::kRemote);
  auto ctx = f.ctx();
  arr.write(ctx, 3, 7);
  EXPECT_EQ(arr[3], 7);
  EXPECT_EQ(ctx.stats().accesses, 1u);
}

TEST(SimArrayTest, DistinctArraysDoNotShareLines) {
  Fixture f;
  SimArray<std::uint8_t> a(f.tb.borrower(), 10, node::Placement::kRemote);
  SimArray<std::uint8_t> b(f.tb.borrower(), 10, node::Placement::kRemote);
  EXPECT_GE(b.base() - a.base(), mem::kCacheLineBytes);
}

TEST(AddrSpanTest, MapsWithoutHostStorage) {
  Fixture f;
  AddrSpan<float> span(f.tb.borrower(), 1000, node::Placement::kRemote);
  EXPECT_EQ(span.size(), 1000u);
  EXPECT_EQ(span.bytes(), 4000u);
  EXPECT_EQ(span.addr_of(10) - span.addr_of(0), 10 * sizeof(float));
  auto ctx = f.ctx();
  span.touch_read(ctx, 0);
  span.touch_write(ctx, 999);
  span.touch_read(ctx, 500, /*dependent=*/true);
  EXPECT_EQ(ctx.stats().accesses, 3u);
}

TEST(AddrSpanTest, DefaultConstructedIsEmpty) {
  AddrSpan<int> span;
  EXPECT_EQ(span.size(), 0u);
  EXPECT_EQ(span.bytes(), 0u);
}

TEST(SimArrayTest, FillValueAndHugePageAlignedHostStorage) {
  Fixture f;
  // At least kHugePageBytes of host data: 2 MiB-aligned, every element
  // holds the fill value.  Smaller arrays take the ordinary allocator.
  const std::size_t n = kHugePageBytes / sizeof(double) + 3;
  SimArray<double> big(f.tb.borrower(), n, node::Placement::kRemote, "big",
                       2.5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.host().data()) %
                kHugePageBytes,
            0u);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(big[i], 2.5) << i;
  SimArray<int> small(f.tb.borrower(), 10, node::Placement::kRemote, "small",
                      7);
  for (std::size_t i = 0; i < small.size(); ++i) EXPECT_EQ(small[i], 7);
}

TEST(SimArrayTest, LocalPlacementStaysBelowRemoteWindow) {
  Fixture f;
  SimArray<int> local(f.tb.borrower(), 64, node::Placement::kLocal);
  EXPECT_LT(local.base(), f.tb.remote_base());
}

}  // namespace
}  // namespace tfsim::workloads
