// kBackpressure switches on a leaf/spine fabric: the lossless policy must
// deliver every frame (zero drops, every closed-loop chain completes its
// budget) with the overload showing up as bounded egress-queue occupancy
// instead of loss -- the same offered traffic under kDrop with shallow
// buffers tail-drops, which is what makes the lossless claim non-vacuous.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/pdes.hpp"
#include "sim/rng.hpp"
#include "sim/units.hpp"

namespace tfsim::net {
namespace {

struct FabricRun {
  std::uint64_t drops = 0;
  std::uint64_t arrivals = 0;         ///< bounce-chain hops completed
  std::uint64_t peak_queued = 0;      ///< hottest egress port
  std::uint64_t injected_bytes = 0;   ///< admitted wire bytes, all ports
};

constexpr std::size_t kHosts = 8;
constexpr int kChains = 4;
constexpr int kBudget = 40;
constexpr std::uint64_t kBufferBytes = 4096;

// Closed-loop bounce chains host i -> i+1 across a 2x2 leaf/spine rack,
// identical to golden::leafspine_fabric (the leafspine_fabric golden rows)
// except for the queue policy under test.  Hosts alternate leaves, so every frame contends for
// the spine uplinks.
FabricRun run_fabric(QueuePolicy policy) {
  namespace sim = tfsim::sim;

  Network fabric;
  std::vector<NodeId> hosts;
  for (std::size_t i = 0; i < kHosts; ++i) {
    // Appended piecewise: gcc 12 at -O3 flags `"h" + std::to_string(i)`
    // with a false -Wrestrict.
    std::string name = "h";
    name += std::to_string(i);
    hosts.push_back(fabric.add_node(name));
  }
  LeafSpineConfig topo;
  topo.leaves = 2;
  topo.spines = 2;
  topo.edge.bandwidth = sim::Bandwidth::from_gbit(50.0);
  topo.edge.propagation = sim::from_ns(120.0);
  topo.uplink.bandwidth = sim::Bandwidth::from_gbit(50.0);
  topo.uplink.propagation = sim::from_ns(200.0);
  topo.sw.policy = policy;
  topo.sw.buffer_bytes = kBufferBytes;  // shallow: kDrop drops at this depth
  const auto rack = LeafSpineFabric::build(fabric, topo, hosts);

  sim::PdesConfig cfg;
  cfg.threads = 1;
  cfg.lookahead = fabric.min_propagation();
  sim::ParallelEngine pdes(
      kHosts + rack.leaves.size() + rack.spines.size(), cfg);

  std::vector<sim::Rng> rng;
  std::vector<std::uint64_t> arrivals(kHosts, 0);
  rng.reserve(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) rng.emplace_back(h + 1);

  std::function<void(NodeId, int, std::uint64_t)> bounce =
      [&](NodeId h, int budget, std::uint64_t flow) {
        ++arrivals[h];
        if (budget <= 0) return;
        sim::Engine& self = pdes.domain(static_cast<sim::DomainId>(h));
        const auto dst = static_cast<NodeId>((h + 1) % kHosts);
        const std::uint64_t bytes = 256 + rng[h].uniform_u64(1200);
        fabric.post_routed(pdes, self.now(), h, dst, bytes,
                           sim::Priority::kBulk, flow,
                           [&bounce, dst, budget, flow](const Delivery&) {
                             bounce(dst, budget - 1, flow + 1);
                           });
      };
  for (std::size_t h = 0; h < kHosts; ++h) {
    for (int chain = 0; chain < kChains; ++chain) {
      const sim::Time start = 1 + rng[h].uniform_u64(cfg.lookahead);
      const auto flow = static_cast<std::uint64_t>(h * 131 + chain);
      pdes.post(static_cast<sim::DomainId>(h), static_cast<sim::DomainId>(h),
                start, [&bounce, h, flow] {
                  bounce(static_cast<NodeId>(h), kBudget, flow);
                });
    }
  }
  pdes.run();

  FabricRun r;
  for (const std::uint64_t a : arrivals) r.arrivals += a;
  for (const auto& [id, sw] : fabric.switches()) {
    r.drops += sw.total_drops();
    for (const auto& [egress, port] : sw.ports()) {
      r.peak_queued = std::max(r.peak_queued, port.peak_queued_bytes);
      r.injected_bytes += port.bytes;
    }
  }
  return r;
}

TEST(BackpressureFabricTest, LosslessFabricDeliversEveryFrame) {
  const FabricRun lossless = run_fabric(QueuePolicy::kBackpressure);
  EXPECT_EQ(lossless.drops, 0u);
  // Each of the 32 chains makes its initial hop plus kBudget deliveries;
  // with zero loss not a single chain may end early.
  EXPECT_EQ(lossless.arrivals,
            static_cast<std::uint64_t>(kHosts * kChains * (kBudget + 1)));
  // The overload is real: some egress queue exceeded the depth at which
  // the drop policy would have discarded, yet stayed bounded (far below
  // the total bytes pushed through the fabric).
  EXPECT_GT(lossless.peak_queued, kBufferBytes);
  EXPECT_LT(lossless.peak_queued, lossless.injected_bytes / 4);
}

TEST(BackpressureFabricTest, SameTrafficUnderDropPolicyLosesFrames) {
  const FabricRun drop = run_fabric(QueuePolicy::kDrop);
  EXPECT_GT(drop.drops, 0u) << "shallow kDrop buffers must tail-drop, or "
                               "the lossless comparison proves nothing";
  EXPECT_LT(drop.arrivals,
            static_cast<std::uint64_t>(kHosts * kChains * (kBudget + 1)))
      << "a dropped frame must end its chain early";
  // Admission compares occupancy + frame size against the depth, so the
  // post-admission peak can never exceed the configured buffer.
  EXPECT_LE(drop.peak_queued, kBufferBytes);
}

}  // namespace
}  // namespace tfsim::net
