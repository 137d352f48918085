// Destination-based routing tables with deterministic ECMP striping.
//
// The table is the network's only source of routes.  Rather than a hop
// list per (src, dst) pair, which is quadratic in nodes and silent about
// the topology, it is computed from the declared link graph: a BFS per
// destination yields, for every current node, the set of equal-cost next
// hops.  Parallel spine links therefore appear as multiple candidates
// and a flow-keyed hash stripes traffic across them -- the ECMP the
// leaf/spine fabric needs to spread the paper's contention over S spines
// instead of one trunk.
//
// Determinism rules (simlint R4): candidate sets are ordered by NodeId, the
// stripe hash mixes integer ids and the caller-provided flow salt only --
// never pointers, never wall-clock, never insertion order -- so the chosen
// path is a pure function of (topology, src, dst, salt) and identical under
// serial and PDES execution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace tfsim::net {

class RoutingTable {
 public:
  /// Rebuild from the directed edge list (every connected (from, to) hop).
  /// Nodes are [0, num_nodes); edges referencing ids outside that range are
  /// a logic error upstream and throw.
  void build(std::size_t num_nodes,
             const std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Equal-cost next hops from `cur` toward `dst`, ascending by NodeId;
  /// empty when dst is unreachable from cur (or cur == dst).
  const std::vector<NodeId>& next_hops(NodeId cur, NodeId dst) const;

  bool reachable(NodeId src, NodeId dst) const {
    return src != dst && !next_hops(src, dst).empty();
  }

  /// Deterministic ECMP pick among the equal-cost candidates: SplitMix64
  /// over (flow src, flow dst, current node, flow salt).  Request and
  /// response directions hash independently; varying the salt (e.g. the
  /// NIC retry attempt) re-stripes a flow onto a different parallel link.
  /// Throws std::invalid_argument when dst is unreachable from cur.
  NodeId pick(NodeId cur, NodeId dst, NodeId src, std::uint64_t flow_salt) const;

 private:
  std::size_t n_ = 0;
  /// next_[dst * n_ + cur] = sorted equal-cost next hops.
  std::vector<std::vector<NodeId>> next_;
};

}  // namespace tfsim::net
