#include "net/topology.hpp"

#include <stdexcept>
#include <string>

namespace tfsim::net {

DumbbellFabric DumbbellFabric::build(Network& network,
                                     const DumbbellConfig& cfg,
                                     const std::vector<NodeId>& borrowers,
                                     const std::vector<NodeId>& lenders) {
  if (borrowers.empty() || lenders.empty()) {
    throw std::invalid_argument(
        "DumbbellFabric: needs at least one borrower and one lender");
  }
  DumbbellFabric topo;
  topo.switch_a = network.add_switch(cfg.prefix + "switch-a", cfg.sw);
  topo.switch_b = network.add_switch(cfg.prefix + "switch-b", cfg.sw);
  network.connect(topo.switch_a, topo.switch_b, cfg.trunk);
  network.connect(topo.switch_b, topo.switch_a, cfg.trunk);
  for (const NodeId b : borrowers) {
    network.connect(b, topo.switch_a, cfg.edge);
    network.connect(topo.switch_a, b, cfg.edge);
  }
  for (const NodeId l : lenders) {
    network.connect(l, topo.switch_b, cfg.edge);
    network.connect(topo.switch_b, l, cfg.edge);
  }
  network.build_routes();
  return topo;
}

LeafSpineFabric LeafSpineFabric::build(Network& network,
                                       const LeafSpineConfig& cfg,
                                       const std::vector<NodeId>& hosts) {
  if (cfg.leaves == 0 || cfg.spines == 0) {
    throw std::invalid_argument(
        "LeafSpineFabric: needs at least one leaf and one spine");
  }
  if (hosts.size() < cfg.leaves) {
    throw std::invalid_argument("LeafSpineFabric: fewer hosts (" +
                                std::to_string(hosts.size()) +
                                ") than leaves (" +
                                std::to_string(cfg.leaves) + ")");
  }
  LeafSpineFabric topo;
  for (std::uint32_t l = 0; l < cfg.leaves; ++l) {
    topo.leaves.push_back(
        network.add_switch(cfg.prefix + "leaf" + std::to_string(l), cfg.sw));
  }
  for (std::uint32_t s = 0; s < cfg.spines; ++s) {
    topo.spines.push_back(
        network.add_switch(cfg.prefix + "spine" + std::to_string(s), cfg.sw));
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const NodeId leaf = topo.leaves[i % topo.leaves.size()];
    network.connect(hosts[i], leaf, cfg.edge);
    network.connect(leaf, hosts[i], cfg.edge);
  }
  for (const NodeId leaf : topo.leaves) {
    for (const NodeId spine : topo.spines) {
      network.connect(leaf, spine, cfg.uplink);
      network.connect(spine, leaf, cfg.uplink);
    }
  }
  network.build_routes();
  return topo;
}

}  // namespace tfsim::net
