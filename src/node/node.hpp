// A datacenter node: CPU contexts, cache hierarchy, local DRAM, memory map,
// and (for borrower-capable nodes) the disaggregated-memory NIC.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "mem/address.hpp"
#include "mem/dram.hpp"
#include "mem/hierarchy.hpp"
#include "net/network.hpp"
#include "nic/nic.hpp"
#include "node/migration.hpp"
#include "node/spec.hpp"
#include "sim/domain.hpp"
#include "sim/engine.hpp"

namespace tfsim::node {

/// Where a workload wants its arrays placed.
enum class Placement {
  kLocal,   ///< node-local DRAM only
  kRemote,  ///< hot-plugged disaggregated memory only
  kAuto,    ///< local first, spill to remote (the borrowing use-case)
};

class Node {
 public:
  Node(const NodeSpec& spec, sim::Engine& engine, net::Network& network);

  const std::string& name() const { return spec_.name; }
  net::NodeId net_id() const { return net_id_; }
  sim::Engine& engine() { return engine_; }

  mem::MemoryMap& memory_map() { return map_; }
  mem::CacheHierarchy& caches() { return caches_; }
  mem::Dram& dram() { return dram_; }
  bool has_nic() const { return nic_ != nullptr; }
  nic::DisaggNic& nic();
  const nic::DisaggNic& nic() const;
  const NodeSpec& spec() const { return spec_; }

  /// Bump-allocate `bytes` (line-aligned) with the given placement; throws
  /// std::bad_alloc if the placement cannot be satisfied.
  mem::Addr allocate(std::uint64_t bytes, Placement placement);

  /// Bytes still allocatable per backing.
  std::uint64_t free_bytes(mem::Backing backing) const;

  /// Telemetry for the control plane (Fig. 7 insight feeds this).
  double bus_utilization() const {
    return dram_.utilization(engine_.now());
  }

  /// Turn on the hot-page migration daemon (off by default).
  void enable_migration(const MigrationConfig& cfg);
  PageMigrator* migrator() { return migrator_.get(); }

  /// Register this node and every sim object it owns (DRAM, caches, NIC,
  /// migrator) with `checker` under domain `domain`.  Cluster calls this
  /// once per node at assembly; standalone nodes stay unbound (all
  /// ownership checks free).
  void bind_domain(sim::DomainChecker& checker, sim::DomainId domain);

  TFSIM_DOMAIN_OWNED

 private:
  struct Arena {
    mem::Addr cursor = 0;
    mem::Addr end = 0;
  };
  Arena& arena_for(mem::Backing backing);
  /// Rescan the memory map for regions not yet covered by arenas (hot-plug
  /// may add remote regions at any time).
  void refresh_arenas();

  NodeSpec spec_;
  sim::Engine& engine_;
  net::NodeId net_id_;
  mem::MemoryMap map_;
  mem::CacheHierarchy caches_;
  mem::Dram dram_;
  std::unique_ptr<nic::DisaggNic> nic_;
  std::unique_ptr<PageMigrator> migrator_;

  Arena local_arena_;
  Arena remote_arena_;
  std::uint64_t remote_seen_bytes_ = 0;
};

}  // namespace tfsim::node
