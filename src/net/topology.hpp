// Beyond-rack-scale topologies.
//
// The prototype the paper measures is a two-node cable; its motivation is a
// datacenter where borrower-lender pairs share a *switched* network and
// congestion manifests as increased memory-access latency (§II-B).  These
// builders attach already-registered hosts to that fabric: the two-switch
// dumbbell, whose one shared trunk is the congestion point, and the
// leaf/spine rack that stripes the same traffic over parallel spines.
//
// Both declare connectivity alone, register their switches with add_switch
// (per-port egress admission) and finish with network.build_routes(), so
// forwarding comes from the routing table.  Switch nodes are appended
// *after* the hosts, preserving the identity host-index == NodeId partition
// the Cluster's PDES assembly relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace tfsim::net {

struct DumbbellConfig {
  LinkConfig edge;     ///< host <-> switch hops
  LinkConfig trunk;    ///< the shared switch <-> switch hop
  SwitchConfig sw;     ///< per-switch egress queue policy
  std::string prefix;  ///< switch-name prefix (Cluster scoping)
};

/// Two-switch dumbbell: borrowers -- switch-a == trunk == switch-b --
/// lenders.  The only shortest borrower->lender path is edge-trunk-edge, so
/// with trunk bandwidth equal to one edge link, K active pairs
/// oversubscribe the trunk K:1.
struct DumbbellFabric {
  NodeId switch_a = 0;  ///< the borrowers' switch
  NodeId switch_b = 0;  ///< the lenders' switch

  /// Attach `borrowers` to switch-a and `lenders` to switch-b (existing
  /// node ids) in `network`.  Throws when either side is empty.
  static DumbbellFabric build(Network& network, const DumbbellConfig& cfg,
                              const std::vector<NodeId>& borrowers,
                              const std::vector<NodeId>& lenders);
};

struct LeafSpineConfig {
  std::uint32_t leaves = 2;  ///< leaf (top-of-rack) switches
  std::uint32_t spines = 2;  ///< spine switches, each linked to every leaf
  LinkConfig edge;           ///< host <-> leaf hops
  LinkConfig uplink;         ///< leaf <-> spine hops
  SwitchConfig sw;           ///< per-switch egress queue policy
  std::string prefix;        ///< switch-name prefix (Cluster scoping)
};

/// Two-tier leaf/spine fabric over already-registered hosts: host i attaches
/// to leaf (i mod L) and every leaf links to every spine, so cross-leaf
/// traffic ECMP-stripes across S parallel spine paths.  Aggregate bisection
/// is S uplinks per leaf instead of the dumbbell's single trunk -- the
/// contention cliff moves out by roughly the oversubscription ratio.
struct LeafSpineFabric {
  std::vector<NodeId> leaves;
  std::vector<NodeId> spines;

  /// Attach `hosts` (existing node ids) to a fresh leaf/spine tier in
  /// `network`.  Throws when cfg declares zero leaves/spines or when there
  /// are fewer hosts than leaves (an empty leaf would be dead weight).
  static LeafSpineFabric build(Network& network, const LeafSpineConfig& cfg,
                               const std::vector<NodeId>& hosts);

  /// The leaf that build() attached host index `i` to.
  NodeId leaf_of(std::size_t host_index) const {
    return leaves[host_index % leaves.size()];
  }
};

}  // namespace tfsim::net
