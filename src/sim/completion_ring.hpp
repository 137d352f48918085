// CompletionRing: a multiset of completion times, kept sorted in a ring
// buffer.
//
// The closed-loop miss path holds two such multisets: a context's
// outstanding-miss slots (MSHRs) and the NIC's request window.  Both free
// the slot that completes first, so each needs the earliest time, removal
// of it, and insertion of an arbitrary time.  Completions arrive almost in
// time order, which makes a sorted ring cheaper than a heap: insert()
// places the new time at the back and shifts it left past the (usually
// zero to two) later entries, and a time earlier than every held one -- a
// local-DRAM miss issued behind remote ones -- is put in front of the head
// in O(1).  front() is the earliest time and pop_front() retires it.
//
// Storage is sized for the expected occupancy up front (the MSHR count,
// the window size) and doubles if a caller ever holds more, so the steady
// state allocates nothing.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/units.hpp"

namespace tfsim::sim {

class CompletionRing {
 public:
  /// Storage for `expected` times (at most kInitialSlots), rounded up to a
  /// power of two.
  explicit CompletionRing(std::size_t expected = 0) {
    std::size_t slots = 1;
    while (slots < expected && slots < kInitialSlots) slots <<= 1;
    slots_.assign(slots, 0);
    mask_ = slots - 1;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The earliest held time.  Precondition: !empty().
  Time front() const { return slots_[head_]; }

  /// Retire the earliest held time.  Precondition: !empty().
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Retire and return the earliest held time.  Precondition: !empty().
  Time take_front() {
    const Time t = front();
    pop_front();
    return t;
  }

  void insert(Time t) {
    if (size_ == slots_.size()) grow();
    if (size_ != 0 && t < slots_[head_]) {
      head_ = (head_ - 1) & mask_;
      slots_[head_] = t;
      ++size_;
      return;
    }
    // Open a hole at the back and move it left past every later time.
    std::size_t hole = (head_ + size_) & mask_;
    for (std::size_t before = size_; before != 0; --before) {
      const std::size_t prev = (hole - 1) & mask_;
      if (slots_[prev] <= t) break;
      slots_[hole] = slots_[prev];
      hole = prev;
    }
    slots_[hole] = t;
    ++size_;
  }

 private:
  static constexpr std::size_t kInitialSlots = 256;

  /// Double the storage, unwrapping the held times to start at slot 0.
  void grow() {
    std::vector<Time> bigger(slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = slots_[(head_ + i) & mask_];
    }
    slots_.swap(bigger);
    mask_ = slots_.size() - 1;
    head_ = 0;
  }

  std::vector<Time> slots_;  ///< power-of-two storage, indexed modulo mask_
  std::size_t mask_ = 0;
  std::size_t head_ = 0;  ///< slot of the earliest time
  std::size_t size_ = 0;
};

}  // namespace tfsim::sim
