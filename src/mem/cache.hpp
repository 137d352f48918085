// Set-associative cache model (functional: hit/miss/writeback tracking, no
// data payload).  Write-back, write-allocate, true-LRU replacement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/address.hpp"

namespace tfsim::mem {

enum class Replacement {
  kLru,     ///< true LRU (small L1/L2 arrays)
  kRandom,  ///< pseudo-random victim (POWER9 L3 victim-cache slices behave
            ///< far closer to this than to global LRU under streaming)
};

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t associativity = 8;
  std::uint32_t line_bytes = kCacheLineBytes;
  Replacement replacement = Replacement::kLru;

  std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  std::uint64_t num_sets() const { return num_lines() / associativity; }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t invalidations = 0;

  std::uint64_t accesses() const { return hits + misses; }
  double hit_rate() const {
    return accesses() ? static_cast<double>(hits) / static_cast<double>(accesses())
                      : 0.0;
  }
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg, std::string name = "cache");

  struct AccessResult {
    bool hit = false;
    bool writeback = false;   ///< a dirty victim was evicted
    Addr victim_line = 0;     ///< line address of the evicted dirty victim
  };

  /// Access the line containing `addr`; on miss the line is allocated
  /// (write-allocate) and the LRU victim evicted.
  AccessResult access(Addr addr, bool write);

  /// True if the line is present (no state change).
  bool probe(Addr addr) const;

  /// Drop the line if present; returns true (and reports dirtiness) if it
  /// was resident.
  bool invalidate(Addr addr, bool* was_dirty = nullptr);

  /// Invalidate every line in [range) -- used on hot-unplug.
  std::uint64_t invalidate_range(const Range& range);

  void flush() { reset_sets(); }

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  std::uint64_t resident_lines() const;

 private:
  /// Where a line lives: its set and its way key (tag plus one, so 0 marks
  /// an invalid way).
  struct Slot {
    std::uint64_t set;
    Addr key;
  };
  Slot locate(Addr addr) const {
    const Addr line_no = addr >> line_shift_;
    if (pow2_sets_) return {line_no & set_mask_, (line_no >> set_shift_) + 1};
    const Addr tag = line_no / sets_count_;
    return {line_no - tag * sets_count_, tag + 1};
  }
  Addr line_from(std::uint64_t set, Addr key) const {
    return ((key - 1) * sets_count_ + set) << line_shift_;
  }
  void drop_way(std::size_t way);
  void reset_sets();

  CacheConfig cfg_;
  std::string name_;
  std::uint64_t sets_count_ = 0;
  // Line size is a power of two, so the line number is a shift; a
  // power-of-two set count also makes the set index a mask and the tag a
  // shift.  Other set counts take one division.
  unsigned line_shift_ = 0;
  bool pow2_sets_ = false;
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  bool lru_replacement_ = false;
  // Per-way state, sets_count_ x associativity, row-major.  The lookup scans
  // only the packed keys; dirty bits and LRU stamps are read on hit/evict.
  // Random replacement never reads the stamps, so lru_ stays empty there.
  std::vector<Addr> keys_;            ///< tag + 1; 0 = invalid
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint64_t> lru_;    ///< last-touch stamp; smallest = LRU victim
  std::uint64_t clock_ = 0;
  std::uint64_t victim_seed_ = 0x2545F4914F6CDD1DULL;
  CacheStats stats_;
};

}  // namespace tfsim::mem
