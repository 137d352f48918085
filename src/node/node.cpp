#include "node/node.hpp"

#include <new>
#include <stdexcept>

namespace tfsim::node {

Node::Node(const NodeSpec& spec, sim::Engine& engine, net::Network& network)
    : spec_(spec),
      engine_(engine),
      net_id_(network.add_node(spec.name)),
      caches_(mem::power9_like_hierarchy()),
      dram_(spec.dram, spec.name + "/dram") {
  // Local DRAM occupies the bottom of the physical map.
  map_.add_region(mem::Region{mem::Range{0, spec.dram.capacity_bytes},
                              mem::Backing::kLocalDram, 0,
                              spec.name + "/local"});
  local_arena_ = Arena{0, spec.dram.capacity_bytes};
  if (spec.with_nic) {
    nic_ = std::make_unique<nic::DisaggNic>(spec.nic, network, net_id_,
                                            spec.name + "/nic");
  }
}

nic::DisaggNic& Node::nic() {
  if (!nic_) throw std::logic_error("Node " + spec_.name + " has no NIC");
  return *nic_;
}

const nic::DisaggNic& Node::nic() const {
  if (!nic_) throw std::logic_error("Node " + spec_.name + " has no NIC");
  return *nic_;
}

void Node::enable_migration(const MigrationConfig& cfg) {
  migrator_ = std::make_unique<PageMigrator>(*this, cfg);
  // A node already bound into a domain checker passes ownership through to
  // daemons started later.
  if (tfsim_domain_h_.bound()) {
    migrator_->tfsim_domain().bind(*tfsim_domain_h_.checker(),
                                   tfsim_domain_h_.id(),
                                   spec_.name + "/migrator");
  }
}

void Node::bind_domain(sim::DomainChecker& checker, sim::DomainId domain) {
  tfsim_domain_h_.bind(checker, domain, spec_.name);
  dram_.tfsim_domain().bind(checker, domain, dram_.name());
  caches_.tfsim_domain().bind(checker, domain, spec_.name + "/caches");
  if (nic_) nic_->tfsim_domain().bind(checker, domain, spec_.name + "/nic");
  if (migrator_) {
    migrator_->tfsim_domain().bind(checker, domain, spec_.name + "/migrator");
  }
}

void Node::refresh_arenas() {
  // Remote regions appear via hot-plug; extend the remote arena when new
  // bytes show up.  Hot-plugged regions are contiguous (control plane bumps
  // a single window), so tracking total size is sufficient.
  const std::uint64_t remote_bytes = map_.total_bytes(mem::Backing::kRemoteDram);
  if (remote_bytes == remote_seen_bytes_) return;
  mem::Addr lo = ~mem::Addr{0};
  mem::Addr hi = 0;
  for (const auto& r : map_.regions()) {
    if (r.backing != mem::Backing::kRemoteDram) continue;
    lo = std::min(lo, r.range.base);
    hi = std::max(hi, r.range.end());
  }
  if (remote_seen_bytes_ == 0) {
    remote_arena_ = Arena{lo, hi};
  } else {
    remote_arena_.end = hi;
  }
  remote_seen_bytes_ = remote_bytes;
}

Node::Arena& Node::arena_for(mem::Backing backing) {
  refresh_arenas();
  return backing == mem::Backing::kLocalDram ? local_arena_ : remote_arena_;
}

mem::Addr Node::allocate(std::uint64_t bytes, Placement placement) {
  TFSIM_DOMAIN_TOUCH("Node::allocate");
  if (bytes == 0) bytes = mem::kCacheLineBytes;
  // Line-align sizes so distinct allocations never share a cache line.
  bytes = (bytes + mem::kCacheLineBytes - 1) & ~std::uint64_t{mem::kCacheLineBytes - 1};

  const auto try_take = [&](mem::Backing backing) -> std::optional<mem::Addr> {
    Arena& a = arena_for(backing);
    if (a.end - a.cursor < bytes) return std::nullopt;
    const mem::Addr addr = a.cursor;
    a.cursor += bytes;
    return addr;
  };

  std::optional<mem::Addr> got;
  switch (placement) {
    case Placement::kLocal:
      got = try_take(mem::Backing::kLocalDram);
      break;
    case Placement::kRemote:
      got = try_take(mem::Backing::kRemoteDram);
      break;
    case Placement::kAuto:
      got = try_take(mem::Backing::kLocalDram);
      if (!got) got = try_take(mem::Backing::kRemoteDram);
      break;
  }
  if (!got) throw std::bad_alloc();
  return *got;
}

std::uint64_t Node::free_bytes(mem::Backing backing) const {
  auto* self = const_cast<Node*>(this);
  const Arena& a = self->arena_for(backing);
  return a.end - a.cursor;
}

}  // namespace tfsim::node
