// Differential test: sim::CompletionRing against std::multiset<Time>, the
// semantics it stands in for in the MSHR slots and the NIC request window.
// Seeded insert/retire sequences must agree on front(), size() and every
// retired time, across reverse-sorted inserts, ties, inserts of the
// earliest time into a full ring, storage growth and many wrap-arounds.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>

#include "sim/completion_ring.hpp"
#include "sim/rng.hpp"

namespace tfsim::sim {
namespace {

/// Ring and model side by side; every operation is checked against both.
class Pair {
 public:
  explicit Pair(std::size_t expected) : ring_(expected) {}

  void insert(Time t) {
    ring_.insert(t);
    model_.insert(t);
    check();
  }
  Time take_front() {
    const Time a = ring_.take_front();
    const Time b = *model_.begin();
    model_.erase(model_.begin());
    EXPECT_EQ(a, b);
    check();
    return a;
  }
  void check() const {
    ASSERT_EQ(ring_.size(), model_.size());
    ASSERT_EQ(ring_.empty(), model_.empty());
    if (!model_.empty()) {
      ASSERT_EQ(ring_.front(), *model_.begin());
    }
  }
  void drain() {
    while (!model_.empty()) take_front();
  }
  CompletionRing& ring() { return ring_; }
  std::size_t size() const { return model_.size(); }

 private:
  CompletionRing ring_;
  std::multiset<Time> model_;
};

void run_sequence(std::uint64_t seed, std::size_t expected, int steps) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " expected=" + std::to_string(expected));
  Rng rng(seed);
  Pair p(expected);
  Time now = 0;
  for (int step = 0; step < steps; ++step) {
    // Occupancy hovers around `expected`, sometimes past it (growth).
    const bool insert = p.size() == 0 ||
                        (p.size() < 2 * expected && rng.uniform_u64(2) == 0);
    if (insert) {
      now += rng.uniform_u64(8);
      // Mostly in order near the clock; sometimes far early (a local miss
      // behind remote ones) or far late; a coarse grid makes ties common.
      const std::uint64_t kind = rng.uniform_u64(10);
      Time t = now + 4 * rng.uniform_u64(16);
      if (kind == 0) t = now > 200 ? now - 200 + rng.uniform_u64(8) : 0;
      if (kind == 1) t = now + 10'000 + rng.uniform_u64(1000);
      p.insert(t);
    } else {
      p.take_front();
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  p.drain();
}

TEST(CompletionRingTest, MatchesMultisetOnSeededSequences) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::size_t expected : {1u, 2u, 3u, 8u, 129u, 300u}) {
      run_sequence(seed * 1000 + expected, expected, 20000);
    }
  }
}

TEST(CompletionRingTest, ReverseSortedInserts) {
  Pair p(64);
  for (Time t = 64; t > 0; --t) p.insert(t * 10);
  EXPECT_EQ(p.ring().front(), 10u);
  for (Time t = 1; t <= 64; ++t) EXPECT_EQ(p.take_front(), t * 10);
}

TEST(CompletionRingTest, TiesKeepMultiplicity) {
  Pair p(16);
  for (int i = 0; i < 5; ++i) p.insert(700);
  p.insert(300);
  for (int i = 0; i < 5; ++i) p.insert(700);
  p.insert(900);
  p.insert(700);
  EXPECT_EQ(p.take_front(), 300u);
  for (int i = 0; i < 11; ++i) EXPECT_EQ(p.take_front(), 700u);
  EXPECT_EQ(p.take_front(), 900u);
}

TEST(CompletionRingTest, EarliestInsertIntoFullRingAcrossTheWrap) {
  Pair p(8);  // eight slots of storage
  // Rotate the head off slot 0 so the held times straddle the wrap.
  for (Time t = 1; t <= 5; ++t) p.insert(t);
  for (int i = 0; i < 5; ++i) p.take_front();
  for (Time t = 100; t < 108; ++t) p.insert(t);
  p.insert(50);  // earlier than every held time, into full storage
  p.insert(75);  // and one that shifts past the whole backlog
  EXPECT_EQ(p.take_front(), 50u);
  EXPECT_EQ(p.take_front(), 75u);
  p.drain();
}

TEST(CompletionRingTest, ManyWrapArounds) {
  // A steady in-order stream through a small ring wraps the head thousands
  // of times; every tenth completion lands before the whole backlog.
  Pair p(8);  // eight slots of storage, kept full
  Time now = 1000;
  for (int i = 0; i < 8; ++i) p.insert(now + static_cast<Time>(i));
  for (int step = 0; step < 50'000; ++step) {
    p.take_front();
    now += 3;
    p.insert(step % 10 == 0 ? now - 500 : now + 40);
    if (testing::Test::HasFatalFailure()) return;
  }
  p.drain();
}

TEST(CompletionRingTest, GrowsPastInitialStorageWhileWrapped) {
  Pair p(1000);  // storage starts at 256 slots
  for (Time t = 0; t < 200; ++t) p.insert(t);
  for (int i = 0; i < 150; ++i) p.take_front();
  for (Time t = 1000; t < 1950; ++t) p.insert(t % 7 == 0 ? t - 900 : t);
  EXPECT_EQ(p.size(), 1000u);
  p.drain();
}

}  // namespace
}  // namespace tfsim::sim
