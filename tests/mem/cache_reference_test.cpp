// Differential test: SetAssocCache against the per-way struct cache it
// replaced, kept here as the reference model.  Seeded random access streams
// with interleaved invalidate / invalidate_range / flush, under LRU and
// random replacement, must produce identical hits, misses, writebacks,
// victim lines and resident line counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"
#include "sim/rng.hpp"

namespace tfsim::mem {
namespace {

/// The Way{tag, valid, dirty, lru} cache, verbatim in behaviour.
class WayCache {
 public:
  explicit WayCache(const CacheConfig& cfg)
      : cfg_(cfg), sets_(cfg.num_sets()), ways_(sets_ * cfg.associativity) {}

  SetAssocCache::AccessResult access(Addr addr, bool write) {
    const Addr line = line_base(addr, cfg_.line_bytes);
    const std::uint64_t set = set_index(line);
    const Addr tag = tag_of(line);
    Way* base = &ways_[set * cfg_.associativity];
    ++clock_;
    Way* lru = base;
    bool have_invalid = false;
    for (std::uint32_t i = 0; i < cfg_.associativity; ++i) {
      Way& w = base[i];
      if (w.valid && w.tag == tag) {
        w.lru = clock_;
        w.dirty = w.dirty || write;
        ++stats_.hits;
        return SetAssocCache::AccessResult{true, false, 0};
      }
      if (!w.valid) {
        if (!have_invalid) {
          lru = &w;
          have_invalid = true;
        }
      } else if (!have_invalid && lru->valid && w.lru < lru->lru) {
        lru = &w;
      }
    }
    if (!have_invalid && cfg_.replacement == Replacement::kRandom) {
      victim_seed_ ^= victim_seed_ << 13;
      victim_seed_ ^= victim_seed_ >> 7;
      victim_seed_ ^= victim_seed_ << 17;
      lru = &base[victim_seed_ % cfg_.associativity];
    }
    ++stats_.misses;
    SetAssocCache::AccessResult res;
    if (lru->valid && lru->dirty) {
      res.writeback = true;
      res.victim_line = line_from(set, lru->tag);
      ++stats_.writebacks;
    }
    *lru = Way{tag, true, write, clock_};
    return res;
  }

  bool probe(Addr addr) const {
    const Addr line = line_base(addr, cfg_.line_bytes);
    const Way* base = &ways_[set_index(line) * cfg_.associativity];
    for (std::uint32_t i = 0; i < cfg_.associativity; ++i) {
      if (base[i].valid && base[i].tag == tag_of(line)) return true;
    }
    return false;
  }

  bool invalidate(Addr addr, bool* was_dirty) {
    const Addr line = line_base(addr, cfg_.line_bytes);
    Way* base = &ways_[set_index(line) * cfg_.associativity];
    for (std::uint32_t i = 0; i < cfg_.associativity; ++i) {
      Way& w = base[i];
      if (w.valid && w.tag == tag_of(line)) {
        *was_dirty = w.dirty;
        w = Way{};
        ++stats_.invalidations;
        return true;
      }
    }
    *was_dirty = false;
    return false;
  }

  std::uint64_t invalidate_range(const Range& range) {
    std::uint64_t dropped = 0;
    for (std::uint64_t set = 0; set < sets_; ++set) {
      for (std::uint32_t i = 0; i < cfg_.associativity; ++i) {
        Way& w = ways_[set * cfg_.associativity + i];
        if (w.valid && range.contains(line_from(set, w.tag))) {
          w = Way{};
          ++stats_.invalidations;
          ++dropped;
        }
      }
    }
    return dropped;
  }

  void flush() {
    for (auto& w : ways_) w = Way{};
  }

  std::uint64_t resident_lines() const {
    std::uint64_t n = 0;
    for (const auto& w : ways_) n += w.valid ? 1 : 0;
    return n;
  }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Way {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };
  std::uint64_t set_index(Addr line) const {
    return (line / cfg_.line_bytes) % sets_;
  }
  Addr tag_of(Addr line) const { return line / cfg_.line_bytes / sets_; }
  Addr line_from(std::uint64_t set, Addr tag) const {
    return (tag * sets_ + set) * cfg_.line_bytes;
  }

  CacheConfig cfg_;
  std::uint64_t sets_;
  std::vector<Way> ways_;
  std::uint64_t clock_ = 0;
  std::uint64_t victim_seed_ = 0x2545F4914F6CDD1DULL;
  CacheStats stats_;
};

void expect_same_stats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.invalidations, b.invalidations);
}

/// `steps` random operations.  Flushes and range invalidations empty or
/// walk the whole cache, so for a large cache `rare` makes them that many
/// times less frequent and the cache can fill up.
void run_stream(const CacheConfig& cfg, std::uint64_t seed, int steps = 20000,
                std::uint64_t rare = 1) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " sets=" +
               std::to_string(cfg.num_sets()) + " ways=" +
               std::to_string(cfg.associativity));
  sim::Rng rng(seed);
  SetAssocCache cache(cfg);
  WayCache model(cfg);
  // A footprint of 4x the capacity: hits, conflict evictions and dirty
  // victims are all common.  Address 0 is included, so tag 0 is exercised.
  const std::uint64_t footprint_lines = 4 * cfg.num_lines();
  for (int step = 0; step < steps; ++step) {
    const Addr addr =
        rng.uniform_u64(footprint_lines) * cfg.line_bytes +
        rng.uniform_u64(cfg.line_bytes);
    std::uint64_t op = rng.uniform_u64(1000);
    if (rare > 1 && op >= 40 && op < 46 && rng.uniform_u64(rare) != 0) {
      op = 100;  // an access instead
    }
    if (op < 40) {
      bool dirty_a = false;
      bool dirty_b = true;
      ASSERT_EQ(cache.invalidate(addr, &dirty_a),
                model.invalidate(addr, &dirty_b))
          << "step " << step;
      ASSERT_EQ(dirty_a, dirty_b) << "step " << step;
    } else if (op < 45) {
      const Range range{addr, rng.uniform_u64(cfg.size_bytes)};
      ASSERT_EQ(cache.invalidate_range(range), model.invalidate_range(range))
          << "step " << step;
    } else if (op < 46) {
      cache.flush();
      model.flush();
    } else if (op < 100) {
      ASSERT_EQ(cache.probe(addr), model.probe(addr)) << "step " << step;
    } else {
      const bool write = rng.uniform_u64(3) == 0;
      const auto a = cache.access(addr, write);
      const auto b = model.access(addr, write);
      ASSERT_EQ(a.hit, b.hit) << "step " << step;
      ASSERT_EQ(a.writeback, b.writeback) << "step " << step;
      ASSERT_EQ(a.victim_line, b.victim_line) << "step " << step;
    }
    if (step % 97 == 0) {
      ASSERT_EQ(cache.resident_lines(), model.resident_lines())
          << "step " << step;
    }
  }
  EXPECT_EQ(cache.resident_lines(), model.resident_lines());
  expect_same_stats(cache.stats(), model.stats());
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().writebacks, 0u);
}

TEST(CacheReferenceTest, LruMatchesWayStructModel) {
  // 8 sets x 4 ways x 64 B, and a non-power-of-two 12 sets x 5 ways.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_stream(CacheConfig{2048, 4, 64, Replacement::kLru}, seed);
    run_stream(CacheConfig{3840, 5, 64, Replacement::kLru}, seed);
  }
}

// Both indexing paths at their edges: one and two sets (mask 0 and 1,
// shift 0 and 1) on the power-of-two path, and a non-power-of-two set
// count with 128 B lines on the division path.
TEST(CacheReferenceTest, EdgeGeometriesMatchWayStructModel) {
  for (const Replacement r : {Replacement::kLru, Replacement::kRandom}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_stream(CacheConfig{1 * 4 * 64, 4, 64, r}, seed);
      run_stream(CacheConfig{2 * 4 * 64, 4, 64, r}, seed);
      run_stream(CacheConfig{1 * 8 * 128, 8, 128, r}, seed);
      run_stream(CacheConfig{12 * 5 * 128, 5, 128, r}, seed);
      run_stream(CacheConfig{7 * 3 * 128, 3, 128, r}, seed);
    }
  }
}

// The production L3 (power9_like_hierarchy: 4096 sets x 20 ways x 128 B,
// random replacement, no LRU stamps), filled past capacity.
TEST(CacheReferenceTest, ProductionL3MatchesWayStructModel) {
  const CacheConfig l3 = power9_like_hierarchy().back().cache;
  ASSERT_EQ(l3.num_sets(), 4096u);
  ASSERT_EQ(l3.associativity, 20u);
  ASSERT_EQ(l3.replacement, Replacement::kRandom);
  run_stream(l3, 7, 250'000, 200);
}

TEST(CacheReferenceTest, RandomMatchesWayStructModel) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_stream(CacheConfig{2048, 4, 64, Replacement::kRandom}, seed);
    run_stream(CacheConfig{3840, 5, 64, Replacement::kRandom}, seed);
    run_stream(CacheConfig{20 * 128 * 16, 20, 128, Replacement::kRandom},
               seed);
  }
}

}  // namespace
}  // namespace tfsim::mem
