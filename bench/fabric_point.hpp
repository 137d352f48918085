// Fabric contention points (bench/fabric_contention): B borrower-lender
// pairs exchanging closed-loop cache-line request/response frames over a
// leaf/spine rack or the dumbbell reference, hop by hop on per-node
// calendars.  Shared by the bench and the golden digest table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "capi/frame.hpp"
#include "core/serving.hpp"
#include "mem/address.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/pdes.hpp"
#include "sim/units.hpp"

namespace tfsim::bench {

// Same wire sizes the NIC puts on the fabric for a cache-line read: a
// command-only request, a response carrying the line.
constexpr std::uint64_t kReqBytes = net::kPacketHeaderBytes + capi::kFrameBytes;
constexpr std::uint64_t kRespBytes =
    net::kPacketHeaderBytes + capi::kFrameBytes + mem::kCacheLineBytes;
constexpr int kChainsPerBorrower = 8;

/// One measured fabric (leaf/spine point or dumbbell reference).
struct PointResult {
  std::uint64_t completed = 0;     ///< round trips finished in the window
  std::uint64_t chains_lost = 0;   ///< chains ended by a tail drop
  double rtt_mean_us = 0.0;
  double rtt_p50_us = 0.0;
  double rtt_p99_us = 0.0;
  std::uint64_t peak_queue_bytes = 0;  ///< hottest egress port, peak
  double mean_queue_bytes = 0.0;       ///< hottest egress port, mean
  std::uint64_t switch_drops = 0;
  std::uint64_t digest = 0;   ///< FNV-1a over every per-host/port counter
  std::uint64_t events = 0;   ///< events executed across every calendar
  std::uint64_t windows = 0;  ///< lookahead windows opened
};

struct FabricUnderTest {
  net::Network net;
  std::vector<net::NodeId> partner;   ///< borrower id -> lender id
  std::vector<net::NodeId> switches;  ///< ids, for the domain count
};

/// Hosts 0..B-1 are borrowers, B..2B-1 lenders, matched cross-leaf: a
/// deterministic greedy scan pairs each borrower with the first unused
/// lender on a different leaf, so every chain crosses the spine tier.
inline void build_leafspine(FabricUnderTest& f,
                            const scenario::TopologySpec& topo,
                            std::uint32_t borrowers) {
  std::vector<net::NodeId> hosts;
  for (std::uint32_t i = 0; i < 2 * borrowers; ++i) {
    std::string name = i < borrowers ? "b" : "l";
    name += std::to_string(i % borrowers);
    hosts.push_back(f.net.add_node(name));
  }
  net::LeafSpineConfig cfg;
  cfg.leaves = topo.leaves;
  cfg.spines = topo.spines;
  cfg.edge = topo.link;
  cfg.uplink = topo.uplink;
  cfg.sw = topo.sw;
  const auto rack = net::LeafSpineFabric::build(f.net, cfg, hosts);
  f.switches.insert(f.switches.end(), rack.leaves.begin(), rack.leaves.end());
  f.switches.insert(f.switches.end(), rack.spines.begin(), rack.spines.end());

  f.partner.assign(borrowers, 0);
  std::vector<bool> used(borrowers, false);
  for (std::uint32_t i = 0; i < borrowers; ++i) {
    std::uint32_t pick = borrowers;  // fallback: first unused, any leaf
    for (std::uint32_t k = 0; k < borrowers; ++k) {
      const std::uint32_t j = (i + 1 + k) % borrowers;
      if (used[j]) continue;
      if (pick == borrowers) pick = j;
      if (rack.leaf_of(borrowers + j) != rack.leaf_of(i)) {
        pick = j;
        break;
      }
    }
    used[pick] = true;
    f.partner[i] = static_cast<net::NodeId>(borrowers + pick);
  }
}

/// The dumbbell reference: borrowers -- switchA == trunk == switchB --
/// lenders, with the trunk at the *same per-link capacity* as one spine
/// uplink, so the comparison isolates the striping (1 shared hop vs
/// leaves x spines parallel uplinks).
inline void build_dumbbell(FabricUnderTest& f,
                           const scenario::TopologySpec& topo,
                           std::uint32_t borrowers) {
  std::vector<net::NodeId> bs;
  std::vector<net::NodeId> ls;
  for (std::uint32_t i = 0; i < 2 * borrowers; ++i) {
    std::string name = i < borrowers ? "b" : "l";
    name += std::to_string(i % borrowers);
    (i < borrowers ? bs : ls).push_back(f.net.add_node(name));
  }
  const auto dumbbell = net::DumbbellFabric::build(
      f.net,
      {.edge = topo.link, .trunk = topo.uplink, .sw = topo.sw, .prefix = {}},
      bs, ls);
  f.switches = {dumbbell.switch_a, dumbbell.switch_b};
  f.partner = ls;
}

/// Drive kChainsPerBorrower closed-loop request/response chains per
/// borrower for `window` sim time and fold every observable into the
/// result.  All traffic is post_routed: each hop transmits in the domain
/// that owns its egress link.
inline PointResult run_traffic(FabricUnderTest& f, std::uint32_t borrowers,
                               sim::Time window) {
  sim::PdesConfig cfg;
  cfg.threads = 1;
  cfg.lookahead = f.net.min_propagation();
  sim::ParallelEngine pdes(2 * borrowers + f.switches.size(), cfg);

  // Per-borrower state, only ever touched from the owning domain.
  std::vector<std::vector<std::uint64_t>> rtts(borrowers);
  const sim::Time stop = window;

  std::function<void(net::NodeId, std::uint64_t)> issue =
      [&](net::NodeId b, std::uint64_t flow) {
        sim::Engine& self = pdes.domain(static_cast<sim::DomainId>(b));
        if (self.now() >= stop) return;
        const net::NodeId lender = f.partner[b];
        const sim::Time t0 = self.now();
        // A tail-dropped frame ends the chain: on_arrival never fires and
        // the borrower's window closes with one fewer live chain.  The NIC
        // layer retries; this bench measures the raw fabric, so a loss is
        // simply recorded (chains_lost) at drain time via the rtt count.
        f.net.post_routed(
            pdes, t0, b, lender, kReqBytes, sim::Priority::kLatency, flow,
            [&, b, lender, flow, t0](const net::Delivery&) {
              sim::Engine& at_lender =
                  pdes.domain(static_cast<sim::DomainId>(lender));
              f.net.post_routed(
                  pdes, at_lender.now(), lender, b, kRespBytes,
                  sim::Priority::kBulk, flow,
                  [&, b, flow, t0](const net::Delivery& resp) {
                    rtts[b].push_back(resp.arrival - t0);
                    issue(b, flow);
                  });
            });
      };

  for (std::uint32_t b = 0; b < borrowers; ++b) {
    for (int c = 0; c < kChainsPerBorrower; ++c) {
      // Stagger starts inside the first lookahead window; the offsets are a
      // pure function of (b, c), so the schedule is seed-free determinism.
      const sim::Time start =
          1 + (static_cast<sim::Time>(b) * 131 + static_cast<sim::Time>(c)) %
                  cfg.lookahead;
      const auto flow = static_cast<std::uint64_t>(b) * kChainsPerBorrower +
                        static_cast<std::uint64_t>(c);
      pdes.post(static_cast<sim::DomainId>(b), static_cast<sim::DomainId>(b),
                start, [&issue, b, flow] {
                  issue(static_cast<net::NodeId>(b), flow);
                });
    }
  }
  pdes.run();

  // Serialize every observable in fixed (host, then switch/port) order --
  // the digest input and the source of all reported statistics.
  std::ostringstream os;
  PointResult r;
  std::vector<std::uint64_t> all;
  for (std::uint32_t b = 0; b < borrowers; ++b) {
    os << b << ":" << rtts[b].size() << ";";
    r.completed += rtts[b].size();
    all.insert(all.end(), rtts[b].begin(), rtts[b].end());
    for (const std::uint64_t v : rtts[b]) os << v << ",";
  }
  for (const net::NodeId sw : f.switches) {
    const net::Switch& s = f.net.switch_at(sw);
    os << "S" << sw << "=" << s.total_drops();
    r.switch_drops += s.total_drops();
    for (const auto& [egress, port] : s.ports()) {
      os << ",p" << egress << ":" << port.frames << ":" << port.bytes << ":"
         << port.drops << ":" << port.peak_queued_bytes;
      if (port.peak_queued_bytes >= r.peak_queue_bytes) {
        r.peak_queue_bytes = port.peak_queued_bytes;
        r.mean_queue_bytes = port.mean_queued_bytes();
      }
    }
    os << ";";
  }
  r.digest = core::fnv1a(os.str());
  r.events = pdes.executed();
  r.windows = pdes.windows();

  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    double sum = 0.0;
    for (const std::uint64_t v : all) sum += static_cast<double>(v);
    r.rtt_mean_us = sim::to_us(static_cast<sim::Time>(sum / all.size()));
    r.rtt_p50_us = sim::to_us(all[all.size() / 2]);
    r.rtt_p99_us = sim::to_us(all[all.size() - 1 - all.size() / 100]);
  }
  // Every frame belongs to exactly one closed-loop chain and a dropped
  // frame ends that chain for good, so the drop count is the chain count.
  r.chains_lost = r.switch_drops;
  return r;
}

/// One measured point: build the fabric, then drive it for `window`.
inline PointResult run_point(const scenario::TopologySpec& topo,
                             scenario::TopologyKind kind,
                             std::uint32_t borrowers, sim::Time window) {
  FabricUnderTest f;
  if (kind == scenario::TopologyKind::kLeafSpine) {
    build_leafspine(f, topo, borrowers);
  } else {
    build_dumbbell(f, topo, borrowers);
  }
  return run_traffic(f, borrowers, window);
}

}  // namespace tfsim::bench
