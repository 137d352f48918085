#include "node/cluster.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ctrl/policy.hpp"
#include "net/latency_dist.hpp"
#include "net/topology.hpp"
#include "sim/log.hpp"

namespace tfsim::node {

namespace {

/// The network ids of `nodes` (Node pointers of any kind), in order.
template <typename Nodes>
std::vector<net::NodeId> net_ids(const Nodes& nodes) {
  std::vector<net::NodeId> ids;
  ids.reserve(nodes.size());
  for (const auto& n : nodes) ids.push_back(n->net_id());
  return ids;
}

NodeSpec to_node_spec(const scenario::NodeDecl& decl, std::uint32_t index) {
  NodeSpec spec;
  spec.name = decl.count == 1 ? decl.name : decl.name + std::to_string(index);
  spec.dram = decl.dram;
  spec.with_nic = decl.nic_enabled();
  spec.nic = decl.nic;
  return spec;
}

}  // namespace

Cluster::Cluster(const scenario::ScenarioSpec& spec) : spec_(spec) {
  if (spec_.nodes.empty()) {
    throw std::invalid_argument("Cluster: scenario declares no nodes");
  }
  resolve_pdes();
  build_nodes();
  build_topology();
  build_control_plane();
  apply_injector();
  apply_faults();
  apply_chaos();
  remote_.resize(borrowers_.size());
  if (pdes_ != nullptr) {
    // Lookahead derives from the assembled fabric: no frame reaches another
    // domain before now + min link propagation.  An explicit scenario value
    // may only shrink the window below that sound bound.
    const sim::Time min_prop = network_.min_propagation();
    sim::Time lookahead = spec_.pdes.lookahead_ns > 0.0
                              ? sim::from_ns(spec_.pdes.lookahead_ns)
                              : min_prop;
    if (lookahead > min_prop) {
      TFSIM_LOG(Warn) << "cluster: pdes lookahead " << sim::to_ns(lookahead)
                      << " ns exceeds the fabric's min propagation "
                      << sim::to_ns(min_prop) << " ns; clamping";
      lookahead = min_prop;
    }
    pdes_->set_lookahead(lookahead);
  }
}

void Cluster::resolve_pdes() {
  if (spec_.pdes.threads == 0) return;
  sim::PdesConfig cfg;
  cfg.threads = spec_.pdes.threads;
  // Switches are domains too: hosts take [0, N), fabric switches take the
  // ids after them, matching the order build_topology registers network
  // nodes (so DomainId == network NodeId everywhere).
  pdes_ = std::make_unique<sim::ParallelEngine>(
      spec_.expanded_node_count() + spec_.topology.switch_count(), cfg);
}

void Cluster::build_nodes() {
  domains_.bind_engine(&engine_);
  engine_.bind_domain_checker(&domains_, sim::kNoDomain);
  // Expansion order is declaration order, so net ids, registry ids and the
  // policy's tie-breaks are all fixed by the spec alone.  In PDES mode the
  // expansion index doubles as the node's DomainId: domain d of pdes() is
  // node d's calendar, so add_domain and domain(i) stay aligned 1:1.
  for (const auto& decl : spec_.nodes) {
    for (std::uint32_t i = 0; i < decl.count; ++i) {
      const auto idx = nodes_.size();
      sim::Engine& calendar =
          pdes_ != nullptr ? pdes_->domain(static_cast<sim::DomainId>(idx))
                           : engine_;
      nodes_.push_back(
          std::make_unique<Node>(to_node_spec(decl, i), calendar, network_));
      Node* n = nodes_.back().get();
      const sim::DomainId dom = domains_.add_domain(n->name());
      n->bind_domain(domains_, dom);
      if (pdes_ != nullptr) calendar.bind_domain_checker(&domains_, dom);
      (decl.role == scenario::Role::kBorrower ? borrowers_ : lenders_)
          .push_back(n);
    }
  }
}

void Cluster::build_topology() {
  const auto& topo = spec_.topology;
  switch (topo.kind) {
    case scenario::TopologyKind::kDirect:
      // Full borrower x lender mesh of point-to-point cables (the paper's
      // two-node testbed is the 1x1 instance).
      for (Node* b : borrowers_) {
        for (Node* l : lenders_) {
          network_.connect(b->net_id(), l->net_id(), topo.link);
          network_.connect(l->net_id(), b->net_id(), topo.link);
        }
      }
      break;
    case scenario::TopologyKind::kDumbbell: {
      // borrowers -- switchA == shared trunk == switchB -- lenders.  The
      // switches are fabric elements, not compute nodes, with per-port
      // egress admission from the switch config.
      const net::DumbbellFabric fabric = net::DumbbellFabric::build(
          network_,
          {.edge = topo.link, .trunk = topo.trunk, .sw = topo.sw,
           .prefix = spec_.name + "/"},
          net_ids(borrowers_), net_ids(lenders_));
      register_switch_domain(fabric.switch_a);
      register_switch_domain(fabric.switch_b);
      break;
    }
    case scenario::TopologyKind::kLeafSpine: {
      // Hosts spread round-robin over L leaves, every leaf uplinked to
      // every spine; cross-leaf flows ECMP-stripe over the S spine paths.
      net::LeafSpineConfig cfg;
      cfg.leaves = topo.leaves;
      cfg.spines = topo.spines;
      cfg.edge = topo.link;
      cfg.uplink = topo.uplink;
      cfg.sw = topo.sw;
      cfg.prefix = spec_.name + "/";
      const net::LeafSpineFabric fabric =
          net::LeafSpineFabric::build(network_, cfg, net_ids(nodes_));
      for (const net::NodeId sw : fabric.leaves) register_switch_domain(sw);
      for (const net::NodeId sw : fabric.spines) register_switch_domain(sw);
      break;
    }
  }
}

void Cluster::register_switch_domain(net::NodeId sw) {
  const sim::DomainId dom = domains_.add_domain(network_.node_name(sw));
  if (dom != static_cast<sim::DomainId>(sw)) {
    throw std::logic_error(
        "Cluster: switch domain id diverged from its network id");
  }
  if (pdes_ != nullptr) {
    pdes_->domain(dom).bind_domain_checker(&domains_, dom);
  }
}

void Cluster::build_control_plane() {
  for (const auto& n : nodes_) {
    registry_ids_.push_back(
        registry_.add_node(n->name(), n->dram().config().capacity_bytes));
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const bool is_borrower =
        std::find(borrowers_.begin(), borrowers_.end(), nodes_[i].get()) !=
        borrowers_.end();
    registry_.set_role(registry_ids_[i],
                       is_borrower ? ctrl::Role::kBorrower : ctrl::Role::kLender);
  }
  cp_ = std::make_unique<ctrl::ControlPlane>(registry_,
                                             ctrl::make_policy(spec_.policy));
  for (Node* b : borrowers_) {
    if (!b->has_nic()) continue;
    for (Node* l : lenders_) {
      b->nic().register_lender(registry_id(*l), l->net_id(), &l->dram());
    }
  }
}

void Cluster::apply_injector() {
  const auto& inj = spec_.injector;
  for (Node* b : borrowers_) {
    if (!b->has_nic()) continue;
    if (inj.dist_kind.has_value()) {
      b->nic().set_distribution_injector(
          std::make_unique<net::LatencyDistribution>(
              *inj.dist_kind, sim::from_us(inj.dist_mean_us), inj.dist_seed));
    } else {
      b->nic().set_period(inj.period);
    }
  }
}

void Cluster::apply_faults() {
  const auto& f = spec_.faults;
  if (f.link.enabled()) network_.enable_faults(f.link);
  if (f.kill_lender.empty()) return;
  // The kill names an expanded lender node; a typo must fail loud, exactly
  // like an unknown JSON key.
  for (std::size_t i = 0; i < lenders_.size(); ++i) {
    if (lenders_[i]->name() == f.kill_lender) {
      kill_lender(i, sim::from_us(f.kill_at_us));
      return;
    }
  }
  throw std::invalid_argument("Cluster: faults.kill_lender names no lender: " +
                              f.kill_lender);
}

void Cluster::apply_chaos() {
  if (!spec_.chaos.enabled()) return;
  const auto windows = scenario::resolve_chaos(spec_.chaos);

  // Targets name fabric elements by suffix ("spine1" matches
  // "chaos-rack/spine1"), so scenario files stay independent of the
  // name-prefixing the topology builder applies.
  const auto suffix_match = [](const std::string& name,
                               const std::string& suffix) {
    if (name == suffix) return true;
    return name.size() > suffix.size() + 1 &&
           name[name.size() - suffix.size() - 1] == '/' &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  const auto find_switch = [&](const std::string& suffix,
                               const std::string& what) -> net::NodeId {
    for (const auto& [id, sw] : network_.switches()) {
      (void)sw;
      if (suffix_match(network_.node_name(id), suffix)) return id;
    }
    throw std::invalid_argument("Cluster: " + what +
                                " names no fabric switch: " + suffix);
  };
  const auto find_net_node = [&](const std::string& suffix,
                                 const std::string& what) -> net::NodeId {
    for (net::NodeId id = 0; id < network_.num_nodes(); ++id) {
      if (suffix_match(network_.node_name(id), suffix)) return id;
    }
    throw std::invalid_argument("Cluster: " + what +
                                " names no network node: " + suffix);
  };

  // Accumulate per target first so each schedule is validated and written
  // exactly once (the switches only ever see sorted, non-overlapping sets).
  std::map<net::NodeId, std::vector<net::FlapSpec>> down;
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<net::FlapSpec>>
      ports;
  for (const auto& w : windows) {
    net::FlapSpec flap;
    flap.start = w.start;
    flap.duration = w.end == sim::kTimeNever ? sim::kTimeNever - w.start
                                             : w.end - w.start;
    flap.bandwidth_factor = w.factor;
    switch (w.kind) {
      case scenario::ChaosKind::kKillSwitch:
        down[find_switch(w.target, "chaos kill_switch")].push_back(flap);
        break;
      case scenario::ChaosKind::kBrownoutPort: {
        const auto colon = w.target.find(':');
        const net::NodeId sw =
            find_switch(w.target.substr(0, colon), "chaos brownout_port");
        const net::NodeId nbr =
            find_net_node(w.target.substr(colon + 1), "chaos brownout_port");
        try {
          network_.link(sw, nbr);
        } catch (const std::invalid_argument&) {
          throw std::invalid_argument(
              "Cluster: chaos brownout_port \"" + w.target +
              "\" names no egress link of that switch");
        }
        ports[{sw, nbr}].push_back(flap);
        break;
      }
      case scenario::ChaosKind::kGrayLender: {
        // Applied later by the serving loop; here only the name check, so a
        // typo fails at assembly exactly like faults.kill_lender.
        const auto hit =
            std::find_if(lenders_.begin(), lenders_.end(), [&](Node* l) {
              return l->name() == w.target;
            });
        if (hit == lenders_.end()) {
          throw std::invalid_argument(
              "Cluster: chaos gray_lender names no lender: " + w.target);
        }
        break;
      }
      case scenario::ChaosKind::kRecover:
        break;  // resolve_chaos never emits recover windows
    }
  }
  for (auto& [id, flaps] : down) {
    network_.switch_at(id).set_down_windows(std::move(flaps));
  }
  for (auto& [port, flaps] : ports) {
    network_.switch_at(port.first).set_port_windows(port.second,
                                                    std::move(flaps));
  }
}

void Cluster::kill_lender(std::size_t lender_idx, sim::Time at) {
  const std::uint32_t id = registry_id(*lenders_.at(lender_idx));
  for (Node* b : borrowers_) {
    if (b->has_nic()) b->nic().set_lender_down(id, at);
  }
}

Node* Cluster::find(const std::string& name) {
  for (const auto& n : nodes_) {
    if (n->name() == name) return n.get();
  }
  return nullptr;
}

std::uint32_t Cluster::registry_id(const Node& n) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].get() == &n) return registry_ids_[i];
  }
  throw std::invalid_argument("Cluster: node not part of this cluster");
}

bool Cluster::attach_remote() {
  if (attached_) return true;
  for (const auto& res : spec_.reservations) {
    // Which borrowers this reservation applies to: all when unnamed, else
    // the exact expanded node name or every expansion of a declaration.
    std::vector<std::size_t> targets;
    for (std::size_t i = 0; i < borrowers_.size(); ++i) {
      const std::string& n = borrowers_[i]->name();
      const bool decl_match =
          !res.borrower.empty() && n.size() > res.borrower.size() &&
          n.compare(0, res.borrower.size(), res.borrower) == 0 &&
          n.find_first_not_of("0123456789", res.borrower.size()) ==
              std::string::npos;
      if (res.borrower.empty() || n == res.borrower || decl_match) {
        targets.push_back(i);
      }
    }
    if (targets.empty()) {
      TFSIM_LOG(Error) << "cluster: reservation \"" << res.name
                       << "\": no borrower named \"" << res.borrower << "\"";
      return false;
    }
    const std::uint64_t size = res.size_gib * sim::kGiB;
    const std::uint64_t chunk = size / res.chunks;
    for (const std::size_t bi : targets) {
      Node* b = borrowers_[bi];
      if (!b->has_nic()) {
        TFSIM_LOG(Error) << "cluster: borrower " << b->name() << " has no NIC";
        return false;
      }
      for (std::uint32_t k = 0; k < res.chunks; ++k) {
        // Last chunk absorbs the division remainder.
        const std::uint64_t bytes =
            k + 1 == res.chunks ? size - chunk * (res.chunks - 1) : chunk;
        std::string name = res.name;
        if (targets.size() > 1) name += "@" + b->name();
        if (res.chunks > 1) name += "#" + std::to_string(k);
        const auto reservation =
            cp_->reserve(registry_id(*b), bytes, name);
        if (!reservation.has_value()) {
          TFSIM_LOG(Error) << "cluster: reservation failed (" << name << ")";
          return false;
        }
        const auto base =
            cp_->attach(reservation->id, b->nic(), b->memory_map());
        if (!base.has_value()) {
          TFSIM_LOG(Warn) << "cluster: attach failed (device timeout?)";
          return false;
        }
        RemoteWindow& w = remote_[bi];
        if (!w.base.has_value()) w.base = *base;
        w.end = *base + bytes;
      }
    }
  }
  attached_ = true;
  return true;
}

mem::Addr Cluster::remote_base(std::size_t i) const {
  return remote_.at(i).base.value();
}

std::uint64_t Cluster::remote_span(std::size_t i) const {
  const RemoteWindow& w = remote_.at(i);
  return w.base.has_value() ? w.end - *w.base : 0;
}

void Cluster::set_period(std::uint64_t period) {
  for (Node* b : borrowers_) {
    if (b->has_nic()) b->nic().set_period(period);
  }
}

std::uint64_t Cluster::period() const {
  for (Node* b : borrowers_) {
    if (b->has_nic()) return b->nic().period();
  }
  throw std::logic_error("Cluster: no borrower NIC to read PERIOD from");
}

}  // namespace tfsim::node
