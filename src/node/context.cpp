#include "node/context.hpp"

#include <algorithm>
#include <stdexcept>

namespace tfsim::node {

MemContext::MemContext(Node& node, CpuConfig cfg, std::string name)
    : node_(node), cfg_(cfg), name_(std::move(name)), outstanding_(cfg.mlp) {
  if (cfg_.mlp == 0) {
    throw std::invalid_argument("MemContext: mlp must be at least 1");
  }
  stats_.level_hits.resize(node.caches().num_levels(), 0);
}

void MemContext::seek(sim::Time t) { now_ = std::max(now_, t); }

void MemContext::advance(sim::Time dt) {
  now_ = sim::checked_add(now_, dt, "MemContext::advance");
  stats_.compute_time += dt;
}

void MemContext::reserve_slot() {
  if (outstanding_.size() < cfg_.mlp) return;
  const sim::Time free_at = outstanding_.take_front();
  if (free_at > now_) {
    stats_.stall_time += free_at - now_;
    now_ = free_at;
  }
}

sim::Time MemContext::miss_path(mem::Addr addr) {
  // The one memory-map lookup of a miss.  It runs after sync_engine():
  // control-plane events may hot-unplug regions, so a Region* found before
  // the engine caught up could dangle.
  const mem::Region* region = node_.memory_map().find(addr);
  if (region == nullptr || region->backing == mem::Backing::kLocalDram) {
    // Local DRAM (unmapped addresses also land here: the functional model
    // has no MMU faults; tests assert workloads stay in-bounds).
    ++stats_.local_misses;
    return node_.dram().access(now_, mem::kCacheLineBytes);
  }
  // Hot-page migration: pages the daemon already moved are served locally.
  if (auto* migrator = node_.migrator();
      migrator != nullptr && migrator->on_remote_access(addr, now_)) {
    return node_.dram().access(now_, mem::kCacheLineBytes, cfg_.net_priority);
  }
  // Remote: allocation fetch is a read (rd_wnitc) even for store misses
  // (write-allocate); dirty data returns later as a posted writeback.
  const auto trace = node_.nic().remote_access(now_, addr, /*write=*/false,
                                               cfg_.net_priority);
  if (!trace.has_value()) {
    ++stats_.failures;
    device_failed_ = true;
    return now_;
  }
  ++stats_.remote_misses;
  return trace->completion;
}

void MemContext::posted_writeback(mem::Addr line) {
  ++stats_.posted_writebacks;
  const mem::Region* region = node_.memory_map().find(line);
  if (region == nullptr || region->backing == mem::Backing::kLocalDram) {
    node_.dram().access(now_, mem::kCacheLineBytes);
    return;
  }
  const auto trace = node_.nic().remote_access(now_, line, /*write=*/true,
                                               cfg_.net_priority);
  if (!trace.has_value()) {
    ++stats_.failures;
    device_failed_ = true;
  }
}

void MemContext::access(mem::Addr addr, bool write, bool dependent) {
  ++stats_.accesses;
  now_ = sim::checked_add(now_, cfg_.issue_cost, "MemContext::access");

  // Domain guards are scoped tightly around the calls that mutate this
  // node's state, never around sync_engine(): engine callbacks belong to
  // whichever domain scheduled them and open their own guards.
  const sim::DomainHandle& dom = node_.tfsim_domain();
  const auto r = [&] {
    const sim::DomainGuard g(dom.checker(), dom.id(), "ctx:cache");
    return node_.caches().access(addr, write);
  }();
  // A dirty line evicted from the LLC leaves the node asynchronously.
  if (r.memory_writeback.has_value()) {
    sync_engine();
    const sim::DomainGuard g(dom.checker(), dom.id(), "ctx:writeback");
    posted_writeback(*r.memory_writeback);
  }
  if (r.hit_level >= 0) {
    ++stats_.level_hits[static_cast<std::size_t>(r.hit_level)];
    if (dependent) now_ += r.latency;
    return;
  }

  // Miss to memory.  A dependent miss stalls program order until its data
  // returns; an independent one only needs a free outstanding slot.
  if (!dependent) reserve_slot();
  sync_engine();
  const sim::Time issued = now_;
  const sim::Time done = [&] {
    const sim::DomainGuard g(dom.checker(), dom.id(), "ctx:miss");
    return miss_path(addr);
  }();
  stats_.miss_latency_us.add(sim::to_us(done - issued));
  if (!dependent) {
    outstanding_.insert(done);
  } else if (done > now_) {
    stats_.stall_time += done - now_;
    now_ = done;
  }
}

void MemContext::stream(mem::Addr addr, std::uint64_t bytes, bool write) {
  const std::uint64_t n = mem::lines_spanned(addr, bytes);
  mem::Addr line = mem::line_base(addr);
  for (std::uint64_t i = 0; i < n; ++i, line += mem::kCacheLineBytes) {
    access(line, write, /*dependent=*/false);
  }
}

sim::Time MemContext::drain() {
  while (!outstanding_.empty()) {
    const sim::Time t = outstanding_.take_front();
    if (t > now_) {
      stats_.stall_time += t - now_;
      now_ = t;
    }
  }
  sync_engine();
  return now_;
}

void MemContext::reset_stats() {
  stats_ = ContextStats{};
  stats_.level_hits.resize(node_.caches().num_levels(), 0);
}

}  // namespace tfsim::node
