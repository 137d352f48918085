// Zero-allocation regression test for hop-by-hop forwarding: once the
// routed-frame slab, the calendars and the outboxes have grown to a batch's
// size, forwarding an identical batch over a leaf/spine fabric must not
// touch the heap at all.  A test-local replacement of the global operator
// new counts every allocation made while counting is on.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/pdes.hpp"

namespace {
bool g_counting = false;
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tfsim::net {
namespace {

TEST(RoutedAllocTest, WarmBatchForwardsWithoutAllocating) {
  Network net;
  std::vector<NodeId> hosts;
  for (int i = 0; i < 4; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    hosts.push_back(net.add_node(name));
  }
  LeafSpineConfig cfg;
  cfg.leaves = 2;
  cfg.spines = 2;
  LeafSpineFabric::build(net, cfg, hosts);
  sim::ParallelEngine pdes(net.num_nodes(),
                           sim::PdesConfig{1, net.min_propagation()});

  std::uint64_t arrived = 0;
  // Every ordered host pair, several ECMP salts each; the batches start far
  // enough apart that the second finds the fabric idle, just as the first
  // did, and so takes the same paths through the same switch ports.
  const auto batch = [&](sim::Time start) {
    for (const NodeId src : hosts) {
      for (const NodeId dst : hosts) {
        if (src == dst) continue;
        for (std::uint64_t salt = 0; salt < 4; ++salt) {
          net.post_routed(pdes, start + salt, src, dst, 1024,
                          sim::Priority::kBulk, salt,
                          [&arrived](const Delivery&) { ++arrived; });
        }
      }
    }
    pdes.run();
  };
  constexpr std::uint64_t kFrames = 4 * 3 * 4;

  batch(0);
  ASSERT_EQ(arrived, kFrames);

  g_counting = true;
  batch(sim::from_us(1000.0));
  g_counting = false;
  EXPECT_EQ(arrived, 2 * kFrames);
  EXPECT_EQ(g_allocations, 0u) << "allocations in the warm batch";
}

}  // namespace
}  // namespace tfsim::net
