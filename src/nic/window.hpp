// Outstanding-request window (MSHR-style) of the compute-side NIC.
//
// The FPGA tracks a bounded number of in-flight remote transactions; a new
// LLC miss stalls once the window is full.  Because completions free slots
// in time order, the window reduces to a multiset of completion times per
// class: an arrival when full is admitted exactly when the earliest
// in-flight request completes.  Each multiset is a sim::CompletionRing
// sized to the window, so a transaction allocates nothing and an in-order
// completion costs no reordering at all.
// window entries x cache line is the bandwidth-delay product the paper
// measures as constant (~16.5 kB, Fig. 3).
//
// QoS extension: `latency_reserved` slots are usable only by the
// latency-sensitive class, so bulk traffic cannot occupy the entire window
// (the MSHR-partitioning analogue of network packet prioritization).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/completion_ring.hpp"
#include "sim/server.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace tfsim::nic {

class RequestWindow {
 public:
  explicit RequestWindow(std::uint32_t entries,
                         std::uint32_t latency_reserved = 0)
      : entries_(entries),
        latency_reserved_(latency_reserved),
        bulk_(entries),
        latency_(entries) {
    if (entries_ == 0) {
      throw std::invalid_argument("RequestWindow: needs >= 1 entry");
    }
    if (latency_reserved_ >= entries_) {
      throw std::invalid_argument(
          "RequestWindow: reservation must leave bulk capacity");
    }
  }

  /// Earliest time a request arriving at `now` may enter the pipeline.
  /// Consumes the slot it is granted against: each admission_time call must
  /// be paired with exactly one record_completion.
  sim::Time admission_time(sim::Time now,
                           sim::Priority prio = sim::Priority::kBulk) {
    retire(now, bulk_);
    retire(now, latency_);
    // Sample occupancy after retirement as well as after insertion
    // (record_completion): sampling only post-insert never observes the
    // drained states and biases the mean upward.
    occupancy_.add(static_cast<double>(bulk_.size() + latency_.size()));
    if (prio == sim::Priority::kBulk) {
      // Bulk may not consume the reserved slots.
      const std::size_t bulk_cap = entries_ - latency_reserved_;
      if (bulk_.size() >= bulk_cap) {
        ++stalls_;
        return bulk_.take_front();
      }
    }
    if (bulk_.size() + latency_.size() >= entries_) {
      ++stalls_;
      auto& victim =
          (!bulk_.empty() &&
           (latency_.empty() || bulk_.front() <= latency_.front()))
              ? bulk_
              : latency_;
      return victim.take_front();
    }
    return now;
  }

  /// Record the completion time of an admitted request.  Completions may
  /// arrive out of order (QoS classes overtake each other on the network).
  void record_completion(sim::Time completion,
                         sim::Priority prio = sim::Priority::kBulk) {
    auto& mine = prio == sim::Priority::kBulk ? bulk_ : latency_;
    mine.insert(completion);
    occupancy_.add(static_cast<double>(bulk_.size() + latency_.size()));
  }

  std::uint32_t entries() const { return entries_; }
  std::uint32_t latency_reserved() const { return latency_reserved_; }
  std::size_t in_flight() const { return bulk_.size() + latency_.size(); }
  /// Arrivals that found their class's capacity exhausted.
  std::uint64_t stalls() const { return stalls_; }
  const sim::OnlineStats& occupancy_stats() const { return occupancy_; }

 private:
  static void retire(sim::Time now, sim::CompletionRing& ring) {
    while (!ring.empty() && ring.front() <= now) ring.pop_front();
  }

  std::uint32_t entries_;
  std::uint32_t latency_reserved_;
  // Completion times per class, earliest first.  Either class may hold the
  // whole window (the reservation is a floor for the latency class), so
  // each ring is sized for all of it.
  sim::CompletionRing bulk_;
  sim::CompletionRing latency_;
  std::uint64_t stalls_ = 0;
  sim::OnlineStats occupancy_;
};

}  // namespace tfsim::nic
