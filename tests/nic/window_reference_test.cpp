// Differential test: RequestWindow against the ordered-multiset window it
// replaced, kept here as the reference model.  Seeded random admit/complete
// sequences over both priority classes, with completions recorded out of
// order and late, must produce identical admission times, stalls,
// in-flight counts and occupancy statistics.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "nic/window.hpp"
#include "sim/rng.hpp"

namespace tfsim::nic {
namespace {

/// The multiset-of-completion-times window, verbatim in behaviour.
class MultisetWindow {
 public:
  MultisetWindow(std::uint32_t entries, std::uint32_t latency_reserved)
      : entries_(entries), latency_reserved_(latency_reserved) {}

  sim::Time admission_time(sim::Time now, sim::Priority prio) {
    retire(now, bulk_);
    retire(now, latency_);
    occupancy_.add(static_cast<double>(bulk_.size() + latency_.size()));
    if (prio == sim::Priority::kBulk) {
      const std::size_t bulk_cap = entries_ - latency_reserved_;
      if (bulk_.size() >= bulk_cap) {
        ++stalls_;
        return take_earliest(bulk_);
      }
    }
    if (bulk_.size() + latency_.size() >= entries_) {
      ++stalls_;
      auto& victim =
          (!bulk_.empty() &&
           (latency_.empty() || *bulk_.begin() <= *latency_.begin()))
              ? bulk_
              : latency_;
      return take_earliest(victim);
    }
    return now;
  }

  void record_completion(sim::Time completion, sim::Priority prio) {
    auto& mine = prio == sim::Priority::kBulk ? bulk_ : latency_;
    mine.insert(completion);
    occupancy_.add(static_cast<double>(bulk_.size() + latency_.size()));
  }

  std::size_t in_flight() const { return bulk_.size() + latency_.size(); }
  std::uint64_t stalls() const { return stalls_; }
  const sim::OnlineStats& occupancy_stats() const { return occupancy_; }

 private:
  static void retire(sim::Time now, std::multiset<sim::Time>& set) {
    while (!set.empty() && *set.begin() <= now) set.erase(set.begin());
  }
  static sim::Time take_earliest(std::multiset<sim::Time>& set) {
    const sim::Time t = *set.begin();
    set.erase(set.begin());
    return t;
  }

  std::uint32_t entries_;
  std::uint32_t latency_reserved_;
  std::multiset<sim::Time> bulk_;
  std::multiset<sim::Time> latency_;
  std::uint64_t stalls_ = 0;
  sim::OnlineStats occupancy_;
};

struct Pending {
  sim::Time completion;
  sim::Priority prio;
};

void run_sequence(std::uint64_t seed, std::uint32_t entries,
                  std::uint32_t reserved) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " entries=" + std::to_string(entries) +
               " reserved=" + std::to_string(reserved));
  sim::Rng rng(seed);
  RequestWindow window(entries, reserved);
  MultisetWindow model(entries, reserved);
  std::vector<Pending> pending;  // admitted, completion not yet recorded
  sim::Time now = 0;
  for (int step = 0; step < 4000; ++step) {
    // Record a pending completion (a random one: out of order) about a
    // third of the time, and always before the pending list grows past
    // the window.
    if (!pending.empty() &&
        (pending.size() >= entries || rng.uniform_u64(3) == 0)) {
      const std::size_t i = rng.uniform_u64(pending.size());
      const Pending p = pending[i];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      window.record_completion(p.completion, p.prio);
      model.record_completion(p.completion, p.prio);
    } else {
      now += rng.uniform_u64(40);  // bursts of equal times included
      const sim::Priority prio = rng.uniform_u64(4) == 0
                                     ? sim::Priority::kLatency
                                     : sim::Priority::kBulk;
      const sim::Time admitted = window.admission_time(now, prio);
      ASSERT_EQ(admitted, model.admission_time(now, prio)) << "step " << step;
      // Latencies vary widely, so completions land out of order; a coarse
      // grid makes equal completion times common.
      const sim::Time completion = admitted + 10 * (1 + rng.uniform_u64(60));
      pending.push_back(Pending{completion, prio});
    }
    ASSERT_EQ(window.in_flight(), model.in_flight()) << "step " << step;
    ASSERT_EQ(window.stalls(), model.stalls()) << "step " << step;
  }
  const sim::OnlineStats& a = window.occupancy_stats();
  const sim::OnlineStats& b = model.occupancy_stats();
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_GT(window.stalls(), 0u) << "the sequence must exercise full windows";
}

TEST(WindowReferenceTest, MatchesMultisetModelBulkOnly) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) run_sequence(seed, 8, 0);
}

TEST(WindowReferenceTest, MatchesMultisetModelWithReservation) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) run_sequence(seed, 8, 3);
  run_sequence(21, 2, 1);
  run_sequence(22, 1, 0);
}

}  // namespace
}  // namespace tfsim::nic
