// Datacenter fabric: hosts and switches joined by per-hop links, with
// destination-based routing tables, deterministic ECMP striping, and
// per-port switch queueing.
//
// The prototype the paper characterizes is a two-node point-to-point cable;
// scaling beyond rack-scale introduces a switched, shared network.  This
// model supports the spectrum: a direct topology (one link pair), the
// two-switch dumbbell, and a leaf/spine fabric (net/topology.hpp) where
// borrower-lender traffic stripes across parallel spine links -- the source
// of the contention the paper emulates with delay injection.
//
// Routes come only from the link graph: the RoutingTable computed from the
// declared links (net/routing.hpp) forwards every pair, so a topology
// builder only declares connectivity and every host pair routes.  A direct
// link is its pair's unique shortest path, which deliver_ex takes without
// consulting the table.  Registered switch nodes (add_switch) apply
// per-port egress admission (buffer depth, drop vs backpressure --
// net/switch.hpp) to every frame they forward.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "net/switch.hpp"
#include "sim/domain.hpp"
#include "sim/engine.hpp"

namespace tfsim::sim {
class ParallelEngine;
}  // namespace tfsim::sim

namespace tfsim::net {

/// End-to-end result of a delivery attempt across a (possibly faulty) path.
struct Delivery {
  /// Arrival time at the last hop the frame reached.  For kDelivered and
  /// kCorrupted this is the destination arrival; for lost/dropped frames it
  /// is when the loss point was reached (the sender only learns via its own
  /// timer).
  sim::Time arrival = 0;
  FaultOutcome outcome = FaultOutcome::kDelivered;

  bool delivered() const { return outcome == FaultOutcome::kDelivered; }
};

class Network {
 public:
  /// A post_routed frame's arrival callback; captures of up to
  /// sim::Engine::kCallbackBytes are stored inline.
  using ArrivalFn =
      sim::InlineFunction<void(const Delivery&), sim::Engine::kCallbackBytes>;

  /// Register a host node; returns its id.
  NodeId add_node(const std::string& name);

  /// Register a switch: a fabric node whose egress queues apply the
  /// configured buffer policy to every frame it forwards.
  NodeId add_switch(const std::string& name, const SwitchConfig& cfg = {});
  bool is_switch(NodeId id) const {
    return id < switch_of_.size() && switch_of_[id] != nullptr;
  }
  /// Switch state (per-port occupancy stats); throws for non-switch ids.
  Switch& switch_at(NodeId id);
  const Switch& switch_at(NodeId id) const;
  /// All switches, ordered by id (deterministic iteration for reports).
  const std::map<NodeId, Switch>& switches() const { return switches_; }

  /// Create a unidirectional link between two registered nodes; throws on
  /// an unknown node or a second link for the same pair.  Multi-hop paths
  /// are chains of such links, forwarded by the routing table.
  void connect(NodeId from, NodeId to, const LinkConfig& cfg);

  /// Recompute the destination-based routing tables from the current link
  /// graph.  Called lazily by the delivery paths after any topology change;
  /// exposed so builders can pay the cost at assembly time.
  void build_routes();

  /// Deliver `wire_bytes` from src to dst starting at `now`, traversing
  /// hops (serialization + queueing at each) until the frame is delivered
  /// or dropped.  Loss/flap/switch-drop at any hop ends the traversal;
  /// corruption travels on (the CRC is only checked at the destination
  /// NIC).  A direct src->dst link is one hop; any other pair is forwarded
  /// hop by hop from the routing table, and `flow_salt` keys the ECMP
  /// stripe (retransmissions can pass their attempt number to re-stripe
  /// around a dead parallel link).  Throws when dst is unreachable.
  Delivery deliver_ex(sim::Time now, NodeId src, NodeId dst,
                      std::uint64_t wire_bytes,
                      sim::Priority prio = sim::Priority::kBulk,
                      std::uint64_t flow_salt = 0);

  /// Minimum propagation delay over every connected link; kTimeNever when
  /// the fabric has no links yet.  This is the sound conservative lookahead
  /// for partitioning the engine by node (sim/pdes.hpp): a frame sent at t
  /// cannot influence another domain before t + min_propagation.
  sim::Time min_propagation() const;

  /// Hop-by-hop delivery over the routing table on per-node calendars: each
  /// hop's transmit executes in the domain that owns its egress link (the
  /// first hop inline in the caller's, every later hop via a cross-domain
  /// post at the frame's arrival time), so a shared switch port is only
  /// ever touched from its own domain.  Requires the identity partition
  /// the Cluster assembles: DomainId d is network node d's calendar,
  /// switches included.  `on_arrival` runs in dst's domain only if the
  /// frame survives every hop (loss, flap, or switch tail-drop ends the
  /// chain silently -- the sender learns via its own timer).
  ///
  /// Soundness: every post crosses exactly one link, so it lands at least
  /// one propagation delay ahead -- with lookahead <= min_propagation() the
  /// horizon always clears.
  ///
  /// An in-flight frame lives in a slot of a network-owned slab and each
  /// hop's event carries only (network, slot).  Both that event and
  /// `on_arrival` keep their captures inline (sim::InlineFunction), so once
  /// the slab and the calendars are warm, forwarding a frame allocates
  /// nothing unless `on_arrival`'s captures outgrow ArrivalFn's buffer.  The
  /// slab is shared by every domain, which is sound because windows run
  /// serially (sim/pdes.hpp).  A hop that throws frees its slot.  A frame
  /// whose next hop was still buffered when ParallelEngine::run() aborted
  /// is discarded with the window's posts but keeps its slot, and with it
  /// `on_arrival`'s captures, until this Network is destroyed.
  void post_routed(sim::ParallelEngine& pdes, sim::Time now, NodeId src,
                   NodeId dst, std::uint64_t wire_bytes, sim::Priority prio,
                   std::uint64_t flow_salt, ArrivalFn on_arrival);

  /// Wrap every existing link with a FaultyLink driven by `cfg`; each link
  /// gets an independent stream split off cfg.seed via link_fault_seed, so
  /// the full fault pattern is a pure function of (spec, seed).  Links
  /// connected later are unaffected; call again to cover them.  Switch
  /// uplinks are ordinary links and get wrapped like any other hop.
  void enable_faults(const FaultConfig& cfg);
  /// Target one hop (e.g. flap a single spine uplink); throws when the link
  /// is absent or already decorated.
  void enable_faults_on(NodeId from, NodeId to, const FaultConfig& cfg);
  bool faults_enabled() const { return faulty_links_ > 0; }

  /// Link for a hop (for stats); throws if absent.
  Link& link(NodeId from, NodeId to);
  const Link& link(NodeId from, NodeId to) const;
  bool has_link(NodeId from, NodeId to) const {
    const HopSlot* hop = slot(from, to);
    return hop != nullptr && hop->link != nullptr;
  }
  /// Fault decoration for a hop; nullptr when the hop is fault-free.
  const FaultyLink* faulty_link(NodeId from, NodeId to) const;

  std::size_t num_nodes() const { return names_.size(); }
  const std::string& node_name(NodeId id) const { return names_.at(id); }
  /// True when src can reach dst over the link graph.
  bool has_route(NodeId src, NodeId dst) const;
  /// The computed routing table (rebuilt if the topology changed).
  const RoutingTable& routing() const;

 private:
  /// One hop of a traversal: switch egress admission (when `from` is a
  /// registered switch), then the (possibly fault-decorated) link transmit.
  /// Advances d.arrival; returns false when the frame died on this hop.
  bool transmit_hop(Delivery& d, NodeId from, NodeId to,
                    std::uint64_t wire_bytes, sim::Priority prio);
  /// A post_routed frame in flight: everything its next hop needs.
  struct RoutedFrame {
    sim::ParallelEngine* pdes = nullptr;
    NodeId cur = 0;  ///< the node the frame is at (its domain runs the hop)
    NodeId src = 0;
    NodeId dst = 0;
    Delivery d;
    std::uint64_t wire_bytes = 0;
    sim::Priority prio = sim::Priority::kBulk;
    std::uint64_t flow_salt = 0;
    ArrivalFn on_arrival;
  };
  /// Forward frame `idx` one hop from its current node (executing in that
  /// node's domain at d.arrival).
  void step_routed(std::uint32_t idx);
  /// Hand frame `idx` to its on_arrival in dst's domain.
  void finish_routed(std::uint32_t idx);
  std::uint32_t acquire_frame();
  void release_frame(std::uint32_t idx);
  void ensure_routes() const;
  std::string hop_name(const std::pair<NodeId, NodeId>& hop) const;

  /// Everything the network holds for one directed (from, to) node pair.
  struct HopSlot {
    std::unique_ptr<Link> link;          ///< nullptr: no link on this hop
    std::unique_ptr<FaultyLink> faulty;  ///< nullptr: the hop is fault-free
  };
  /// The pair's slot, or nullptr when either id lies beyond the slots laid
  /// out so far (no link has touched it).
  const HopSlot* slot(NodeId from, NodeId to) const {
    return from < stride_ && to < stride_ ? &slots_[from * stride_ + to]
                                          : nullptr;
  }
  /// The pair's slot for assembly-time writes, growing the layout to cover
  /// every registered node.
  HopSlot& slot_for_write(NodeId from, NodeId to);

  std::vector<std::string> names_;
  /// Dense stride_ x stride_ hop slots, row-major by `from`: index order is
  /// ordered (from, to) order.  Laid out at assembly (connect), so delivery
  /// only reads them.
  std::vector<HopSlot> slots_;
  std::size_t stride_ = 0;
  std::size_t faulty_links_ = 0;
  std::map<NodeId, Switch> switches_;
  /// Per node: its switch in switches_ (map nodes never move), or nullptr.
  std::vector<Switch*> switch_of_;
  /// Lazily rebuilt from the hop slots (deterministic: slot order is
  /// ordered (from, to) order), so const queries (has_route) can trigger
  /// the rebuild.
  mutable RoutingTable table_;
  mutable bool table_dirty_ = true;
  /// In-flight post_routed frames; slots are recycled through free_frames_,
  /// so a slot index stays valid while the slab grows.
  std::vector<RoutedFrame> frames_;
  std::vector<std::uint32_t> free_frames_;
};

}  // namespace tfsim::net
