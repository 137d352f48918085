// Multi-level cache hierarchy.
//
// Functional model: each level is a SetAssocCache; an access probes L1
// outward, allocating the line in every level it missed (mostly-inclusive,
// like POWER9's L1/L2/L3 victim-ish hierarchy approximated).  Dirty victims
// evicted from the last level are reported so the memory side (local DRAM or
// the remote lender) can be charged for the writeback.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/cache.hpp"
#include "sim/domain.hpp"
#include "sim/units.hpp"

namespace tfsim::mem {

struct LevelConfig {
  CacheConfig cache;
  sim::Time latency = 0;  ///< load-to-use latency when this level hits
  std::string name;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(const std::vector<LevelConfig>& levels);

  struct Result {
    /// Index of the level that hit, or -1 for a miss to memory.
    int hit_level = -1;
    /// Load-to-use latency of the hitting level (0 for memory miss; the
    /// memory path is charged by the caller).
    sim::Time latency = 0;
    /// Dirty line evicted from the last level by this access.  Only the
    /// last level's victim leaves the hierarchy, so there is at most one.
    std::optional<Addr> memory_writeback;
  };

  Result access(Addr addr, bool write);

  /// Invalidate a line everywhere (coherence / hot-unplug).
  void invalidate(Addr addr);
  std::uint64_t invalidate_range(const Range& range);
  void flush();

  std::size_t num_levels() const { return levels_.size(); }
  const SetAssocCache& level(std::size_t i) const { return *levels_.at(i); }
  sim::Time level_latency(std::size_t i) const { return latencies_.at(i); }

  /// Total capacity across levels (the paper sizes STREAM beyond this).
  std::uint64_t total_capacity() const;

  TFSIM_DOMAIN_OWNED

 private:
  std::vector<std::unique_ptr<SetAssocCache>> levels_;
  std::vector<sim::Time> latencies_;
};

/// POWER9 AC922-like hierarchy (per-core L1/L2, 120 MiB shared L3 as in the
/// paper's testbed: "total cache size of 120 MiB on each node").
std::vector<LevelConfig> power9_like_hierarchy();

}  // namespace tfsim::mem
