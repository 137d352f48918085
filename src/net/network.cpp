#include "net/network.hpp"

#include <algorithm>

#include "sim/pdes.hpp"

namespace tfsim::net {

NodeId Network::add_node(const std::string& name) {
  names_.push_back(name);
  switch_of_.push_back(nullptr);
  table_dirty_ = true;
  return static_cast<NodeId>(names_.size() - 1);
}

NodeId Network::add_switch(const std::string& name, const SwitchConfig& cfg) {
  const NodeId id = add_node(name);
  switch_of_[id] = &switches_.emplace(id, Switch(cfg)).first->second;
  return id;
}

Switch& Network::switch_at(NodeId id) {
  if (!is_switch(id)) {
    throw std::invalid_argument("Network::switch_at: node " +
                                names_.at(id) + " is not a switch");
  }
  return *switch_of_[id];
}

const Switch& Network::switch_at(NodeId id) const {
  if (!is_switch(id)) {
    throw std::invalid_argument("Network::switch_at: node " +
                                names_.at(id) + " is not a switch");
  }
  return *switch_of_[id];
}

Network::HopSlot& Network::slot_for_write(NodeId from, NodeId to) {
  if (stride_ < names_.size()) {
    // Re-lay the slots out for the grown node set; doubling keeps builders
    // that interleave add_node and connect linear overall.
    const std::size_t stride = std::max(names_.size(), 2 * stride_);
    std::vector<HopSlot> grown(stride * stride);
    for (std::size_t f = 0; f < stride_; ++f) {
      for (std::size_t t = 0; t < stride_; ++t) {
        grown[f * stride + t] = std::move(slots_[f * stride_ + t]);
      }
    }
    slots_ = std::move(grown);
    stride_ = stride;
  }
  return slots_[from * stride_ + to];
}

void Network::connect(NodeId from, NodeId to, const LinkConfig& cfg) {
  if (from >= names_.size() || to >= names_.size()) {
    throw std::invalid_argument("Network::connect: unknown node");
  }
  HopSlot& hop = slot_for_write(from, to);
  if (hop.link != nullptr) {
    throw std::invalid_argument("Network::connect: duplicate link");
  }
  hop.link = std::make_unique<Link>(cfg, names_[from] + "->" + names_[to]);
  table_dirty_ = true;
}

std::string Network::hop_name(const std::pair<NodeId, NodeId>& hop) const {
  const auto name = [this](NodeId id) -> std::string {
    if (id < names_.size()) return names_[id];
    std::string unknown = "#";
    unknown += std::to_string(id);
    return unknown;
  };
  return name(hop.first) + "->" + name(hop.second);
}

void Network::build_routes() {
  table_dirty_ = true;
  ensure_routes();
}

void Network::ensure_routes() const {
  if (!table_dirty_) return;
  // The rebuild is deterministic (slots are visited in ordered (from, to)
  // order), so lazy recomputation from const queries can never diverge
  // between runs; the table members are mutable for exactly this cache.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].link != nullptr) {
      edges.emplace_back(static_cast<NodeId>(i / stride_),
                         static_cast<NodeId>(i % stride_));
    }
  }
  table_.build(names_.size(), edges);
  table_dirty_ = false;
}

const RoutingTable& Network::routing() const {
  ensure_routes();
  return table_;
}

bool Network::has_route(NodeId src, NodeId dst) const {
  return routing().reachable(src, dst);
}

bool Network::transmit_hop(Delivery& d, NodeId from, NodeId to,
                           std::uint64_t wire_bytes, sim::Priority prio) {
  const HopSlot* hop = slot(from, to);
  if (hop == nullptr || hop->link == nullptr) {
    throw std::invalid_argument("Network: no link " + hop_name({from, to}));
  }
  Link& out = *hop->link;
  // A degraded chaos window (port brownout) stretches the frame's effective
  // serialization, like a degraded link flap; the window is looked up at the
  // frame's arrival at the switch, matching the admission decision below.
  double stretch = 1.0;
  if (Switch* sw = switch_of_[from]; sw != nullptr) {
    if (!sw->admit(to, d.arrival, wire_bytes, out)) {
      // Tail-dropped or inside a chaos down window (kill_switch / hard-down
      // brownout); downstream hops never see the frame.
      d.outcome = FaultOutcome::kSwitchDropped;
      return false;
    }
    stretch = sw->service_stretch(to, d.arrival);
  }
  if (stretch > 1.0) {
    const sim::Time ser = out.config().bandwidth.serialization_time(wire_bytes);
    d.arrival += static_cast<sim::Time>(static_cast<double>(ser) *
                                        (stretch - 1.0));
  }
  if (hop->faulty == nullptr) {
    d.arrival = out.transmit(d.arrival, wire_bytes, prio);
    return true;
  }
  const auto tx = hop->faulty->transmit(d.arrival, wire_bytes, prio);
  d.arrival = tx.delivered;
  if (tx.outcome == FaultOutcome::kLost ||
      tx.outcome == FaultOutcome::kFlapDropped) {
    d.outcome = tx.outcome;
    return false;  // the frame is gone
  }
  if (tx.outcome == FaultOutcome::kCorrupted) {
    d.outcome = FaultOutcome::kCorrupted;  // sticky until the far end
  }
  return true;
}

Delivery Network::deliver_ex(sim::Time now, NodeId src, NodeId dst,
                             std::uint64_t wire_bytes, sim::Priority prio,
                             std::uint64_t flow_salt) {
  Delivery d;
  d.arrival = now;
  // A direct link is the unique shortest path, so the table would pick it
  // too; taking it here skips the table walk on point-to-point cables.
  if (has_link(src, dst)) {
    transmit_hop(d, src, dst, wire_bytes, prio);
    return d;
  }
  // Forward hop by hop from the routing table, striping across equal-cost
  // links by the flow hash.
  ensure_routes();
  if (!table_.reachable(src, dst)) {
    throw std::invalid_argument("Network::deliver_ex: no route " +
                                names_.at(src) + "->" + names_.at(dst));
  }
  NodeId cur = src;
  while (cur != dst) {
    const NodeId next = table_.pick(cur, dst, src, flow_salt);
    if (!transmit_hop(d, cur, next, wire_bytes, prio)) return d;
    cur = next;
  }
  return d;
}

sim::Time Network::min_propagation() const {
  sim::Time min = sim::kTimeNever;
  for (const HopSlot& hop : slots_) {
    if (hop.link != nullptr && hop.link->propagation() < min) {
      min = hop.link->propagation();
    }
  }
  return min;
}

void Network::post_routed(sim::ParallelEngine& pdes, sim::Time now, NodeId src,
                          NodeId dst, std::uint64_t wire_bytes,
                          sim::Priority prio, std::uint64_t flow_salt,
                          ArrivalFn on_arrival) {
  ensure_routes();
  if (!table_.reachable(src, dst)) {
    throw std::invalid_argument("Network::post_routed: no route " +
                                names_.at(src) + "->" + names_.at(dst));
  }
  const std::uint32_t idx = acquire_frame();
  RoutedFrame& f = frames_[idx];
  f.pdes = &pdes;
  f.cur = src;
  f.src = src;
  f.dst = dst;
  f.d = Delivery{.arrival = now};
  f.wire_bytes = wire_bytes;
  f.prio = prio;
  f.flow_salt = flow_salt;
  f.on_arrival = std::move(on_arrival);
  step_routed(idx);
}

std::uint32_t Network::acquire_frame() {
  if (free_frames_.empty()) {
    frames_.emplace_back();
    return static_cast<std::uint32_t>(frames_.size() - 1);
  }
  const std::uint32_t idx = free_frames_.back();
  free_frames_.pop_back();
  return idx;
}

void Network::release_frame(std::uint32_t idx) {
  frames_[idx].on_arrival = nullptr;
  free_frames_.push_back(idx);
}

void Network::step_routed(std::uint32_t idx) {
  // Nothing below calls back into the model, so `f` stays valid until the
  // hop is posted.
  RoutedFrame& f = frames_[idx];
  try {
    const NodeId next = table_.pick(f.cur, f.dst, f.src, f.flow_salt);
    if (!transmit_hop(f.d, f.cur, next, f.wire_bytes, f.prio)) {
      release_frame(idx);
      return;  // dropped mid-fabric; the sender only learns via its own timer
    }
    const auto cur_dom = static_cast<sim::DomainId>(f.cur);
    const auto next_dom = static_cast<sim::DomainId>(next);
    f.cur = next;
    if (next == f.dst) {
      f.pdes->post(cur_dom, next_dom, f.d.arrival,
                   [this, idx] { finish_routed(idx); });
      return;
    }
    f.pdes->post(cur_dom, next_dom, f.d.arrival,
                 [this, idx] { step_routed(idx); });
  } catch (...) {
    release_frame(idx);  // the hop event that would have owned it is gone
    throw;
  }
}

void Network::finish_routed(std::uint32_t idx) {
  // Free the slot before the callback runs: it may post_routed again and
  // grow the slab under a reference into it.
  RoutedFrame& f = frames_[idx];
  ArrivalFn cb = std::move(f.on_arrival);
  const Delivery d = f.d;
  release_frame(idx);
  cb(d);
}

void Network::enable_faults(const FaultConfig& cfg) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    HopSlot& hop = slots_[i];
    if (hop.link == nullptr || hop.faulty != nullptr) continue;
    FaultConfig per_link = cfg;
    per_link.seed = link_fault_seed(cfg.seed, static_cast<NodeId>(i / stride_),
                                    static_cast<NodeId>(i % stride_));
    hop.faulty = std::make_unique<FaultyLink>(*hop.link, per_link);
    ++faulty_links_;
  }
}

void Network::enable_faults_on(NodeId from, NodeId to,
                               const FaultConfig& cfg) {
  if (!has_link(from, to)) {
    throw std::invalid_argument("Network::enable_faults_on: no link " +
                                hop_name({from, to}));
  }
  HopSlot& hop = slot_for_write(from, to);
  if (hop.faulty != nullptr) {
    throw std::invalid_argument("Network::enable_faults_on: link " +
                                hop_name({from, to}) +
                                " already fault-decorated");
  }
  FaultConfig per_link = cfg;
  per_link.seed = link_fault_seed(cfg.seed, from, to);
  hop.faulty = std::make_unique<FaultyLink>(*hop.link, per_link);
  ++faulty_links_;
}

const FaultyLink* Network::faulty_link(NodeId from, NodeId to) const {
  const HopSlot* hop = slot(from, to);
  return hop == nullptr ? nullptr : hop->faulty.get();
}

Link& Network::link(NodeId from, NodeId to) {
  if (!has_link(from, to)) {
    throw std::invalid_argument("Network::link: no such link");
  }
  return *slots_[from * stride_ + to].link;
}

const Link& Network::link(NodeId from, NodeId to) const {
  if (!has_link(from, to)) {
    throw std::invalid_argument("Network::link: no such link");
  }
  return *slot(from, to)->link;
}

}  // namespace tfsim::net
