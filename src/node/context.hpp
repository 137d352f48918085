// MemContext: the CPU-side memory interface workloads drive.
//
// A context models one application's memory pipeline: every logical access
// goes through the node's cache hierarchy; misses travel to local DRAM or
// through the disaggregated NIC.  Independent misses overlap up to `mlp`
// outstanding (hardware threads x prefetch streams); dependent misses
// (pointer chasing) serialize.  The context owns a local clock `now` that
// the simulation engine is kept in step with, so background processes
// (contention generators) interleave correctly on shared servers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/address.hpp"
#include "node/node.hpp"
#include "node/spec.hpp"
#include "sim/completion_ring.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace tfsim::node {

struct ContextStats {
  std::uint64_t accesses = 0;
  std::vector<std::uint64_t> level_hits;  ///< per cache level
  std::uint64_t local_misses = 0;
  std::uint64_t remote_misses = 0;
  std::uint64_t posted_writebacks = 0;
  std::uint64_t failures = 0;          ///< remote access refused (device lost)
  sim::Time stall_time = 0;            ///< waiting on memory (dependent + window-full)
  sim::Time compute_time = 0;          ///< advance() total
  sim::OnlineStats miss_latency_us;    ///< per-miss issue-to-completion (us)

  std::uint64_t cache_hits() const {
    std::uint64_t h = 0;
    for (auto v : level_hits) h += v;
    return h;
  }
};

class MemContext {
 public:
  /// Throws std::invalid_argument when cfg.mlp is 0.
  MemContext(Node& node, CpuConfig cfg, std::string name = "ctx");

  sim::Time now() const { return now_; }
  /// Jump the context clock forward (e.g. to the engine's current time when
  /// starting after setup).  Never moves backward.
  void seek(sim::Time t);

  /// Pure compute for `dt`.  Throws std::logic_error if the context
  /// clock would wrap.
  void advance(sim::Time dt);

  /// One logical memory access.  `dependent` forces program order to wait
  /// for the data (pointer chase / load-to-use on the critical path).
  /// Throws std::logic_error if the issue cost would wrap the clock.
  void access(mem::Addr addr, bool write, bool dependent = false);
  void read(mem::Addr addr, bool dependent = false) { access(addr, false, dependent); }
  void write(mem::Addr addr) { access(addr, true, false); }

  /// Touch `bytes` starting at `addr` as a streaming (independent) access
  /// pattern; one cache access per line.
  void stream(mem::Addr addr, std::uint64_t bytes, bool write);

  /// Wait for all outstanding misses; returns the new `now`.
  sim::Time drain();

  const ContextStats& stats() const { return stats_; }
  void reset_stats();
  Node& node() { return node_; }
  const CpuConfig& config() const { return cfg_; }
  const std::string& name() const { return name_; }
  bool device_failed() const { return device_failed_; }

 private:
  /// Let the engine process background events up to the context clock.
  void sync_engine() { node_.engine().run_until(now_); }
  /// Stall (if needed) until an outstanding slot is free.
  void reserve_slot();
  /// Memory path for a miss issued at now_; returns completion time.
  sim::Time miss_path(mem::Addr addr);
  void posted_writeback(mem::Addr line);

  Node& node_;
  CpuConfig cfg_;
  std::string name_;
  sim::Time now_ = 0;
  // Completion times of the outstanding independent misses, earliest first
  // (any slot may free first: local misses overtake remote ones).
  sim::CompletionRing outstanding_;
  ContextStats stats_;
  bool device_failed_ = false;
};

}  // namespace tfsim::node
