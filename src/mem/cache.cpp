#include "mem/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace tfsim::mem {

SetAssocCache::SetAssocCache(const CacheConfig& cfg, std::string name)
    : cfg_(cfg), name_(std::move(name)) {
  if (cfg_.line_bytes == 0 || (cfg_.line_bytes & (cfg_.line_bytes - 1)) != 0) {
    throw std::invalid_argument("cache line size must be a power of two");
  }
  if (cfg_.associativity == 0) {
    throw std::invalid_argument("cache geometry must be non-degenerate");
  }
  sets_count_ = cfg_.num_sets();
  if (sets_count_ == 0) {
    throw std::invalid_argument("cache geometry must be non-degenerate");
  }
  if (cfg_.size_bytes % (static_cast<std::uint64_t>(cfg_.associativity) * cfg_.line_bytes) != 0) {
    throw std::invalid_argument("cache size must divide into sets evenly");
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.line_bytes));
  pow2_sets_ = std::has_single_bit(sets_count_);
  if (pow2_sets_) {
    set_shift_ = static_cast<unsigned>(std::countr_zero(sets_count_));
    set_mask_ = sets_count_ - 1;
  }
  lru_replacement_ = cfg_.replacement == Replacement::kLru;
  const std::size_t ways = sets_count_ * cfg_.associativity;
  keys_.assign(ways, 0);
  dirty_.assign(ways, 0);
  if (lru_replacement_) lru_.assign(ways, 0);
}

void SetAssocCache::reset_sets() {
  std::fill(keys_.begin(), keys_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  std::fill(lru_.begin(), lru_.end(), 0);
}

void SetAssocCache::drop_way(std::size_t way) {
  keys_[way] = 0;
  dirty_[way] = 0;
  if (lru_replacement_) lru_[way] = 0;
  ++stats_.invalidations;
}

SetAssocCache::AccessResult SetAssocCache::access(Addr addr, bool write) {
  const auto [set, key] = locate(addr);
  const std::uint32_t assoc = cfg_.associativity;
  const std::size_t base = set * assoc;
  const Addr* keys = &keys_[base];
  ++clock_;

  std::uint32_t invalid = assoc;  // first invalid way, if any
  for (std::uint32_t i = 0; i < assoc; ++i) {
    if (keys[i] == key) {
      if (lru_replacement_) lru_[base + i] = clock_;
      if (write) dirty_[base + i] = 1;
      ++stats_.hits;
      return AccessResult{true, false, 0};
    }
    if (keys[i] == 0 && invalid == assoc) invalid = i;
  }

  // Victim: the first invalid way, else a pseudo-random or the first
  // least-recently-used way.
  std::uint32_t victim = invalid;
  if (victim == assoc) {
    if (cfg_.replacement == Replacement::kRandom) {
      // xorshift victim pick: cheap and stateless per access.
      victim_seed_ ^= victim_seed_ << 13;
      victim_seed_ ^= victim_seed_ >> 7;
      victim_seed_ ^= victim_seed_ << 17;
      victim = static_cast<std::uint32_t>(victim_seed_ % assoc);
    } else {
      // First minimum; the running minimum stays in a register, so the
      // scan has no load on its dependency chain and no branch per way.
      const std::uint64_t* lru = &lru_[base];
      std::uint64_t oldest = lru[0];
      victim = 0;
      for (std::uint32_t i = 1; i < assoc; ++i) {
        const bool older = lru[i] < oldest;
        oldest = older ? lru[i] : oldest;
        victim = older ? i : victim;
      }
    }
  }

  ++stats_.misses;
  AccessResult res;
  const std::size_t way = base + victim;
  if (keys_[way] != 0 && dirty_[way] != 0) {
    res.writeback = true;
    res.victim_line = line_from(set, keys_[way]);
    ++stats_.writebacks;
  }
  keys_[way] = key;
  dirty_[way] = static_cast<std::uint8_t>(write);
  if (lru_replacement_) lru_[way] = clock_;
  return res;
}

bool SetAssocCache::probe(Addr addr) const {
  const auto [set, key] = locate(addr);
  const Addr* keys = &keys_[set * cfg_.associativity];
  return std::find(keys, keys + cfg_.associativity, key) !=
         keys + cfg_.associativity;
}

bool SetAssocCache::invalidate(Addr addr, bool* was_dirty) {
  const auto [set, key] = locate(addr);
  const std::size_t base = set * cfg_.associativity;
  for (std::uint32_t i = 0; i < cfg_.associativity; ++i) {
    if (keys_[base + i] == key) {
      if (was_dirty != nullptr) *was_dirty = dirty_[base + i] != 0;
      drop_way(base + i);
      return true;
    }
  }
  if (was_dirty != nullptr) *was_dirty = false;
  return false;
}

std::uint64_t SetAssocCache::invalidate_range(const Range& range) {
  // Walk resident ways rather than the (possibly huge) address range.
  std::uint64_t dropped = 0;
  for (std::uint64_t set = 0; set < sets_count_; ++set) {
    const std::size_t base = set * cfg_.associativity;
    for (std::uint32_t i = 0; i < cfg_.associativity; ++i) {
      const Addr key = keys_[base + i];
      if (key != 0 && range.contains(line_from(set, key))) {
        drop_way(base + i);
        ++dropped;
      }
    }
  }
  return dropped;
}

std::uint64_t SetAssocCache::resident_lines() const {
  std::uint64_t n = 0;
  for (const Addr key : keys_) n += key != 0 ? 1 : 0;
  return n;
}

}  // namespace tfsim::mem
