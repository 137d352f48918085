// Discrete-event simulation engine.
//
// A single-threaded event calendar: callbacks scheduled at absolute simulated
// times, executed in (time, insertion-order) order.  Deterministic by
// construction — equal-time events run in the order they were scheduled.
//
// Storage is a slab: callbacks live in pooled slots recycled through a free
// list, and the calendar is a 4-ary min-heap of 24-byte trivially copyable
// entries (time, seq, slot, 32-bit generation) that reference slots.  A
// callback is an InlineFunction (sim/inline_function.hpp) that keeps
// captures of up to kCallbackBytes in the slot itself, so scheduling costs
// no heap allocation once the slab and the heap have grown, and moving a
// trivially copyable capture is a memcpy.  A slot's generation is odd while
// it holds a pending event; it increments when the slot is taken and again
// when it is released (fired or cancelled), so a stale heap entry or handle
// is detected by a generation mismatch instead of a shared_ptr control
// block.  A stale entry could only be mistaken for a live one after 2^31
// reuses of its slot while it still sits in the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/domain.hpp"
#include "sim/inline_function.hpp"
#include "sim/units.hpp"

namespace tfsim::sim {

class Engine {
 public:
  /// Inline capture capacity of a Callback: sized so every callback of the
  /// serving request path (core/serving.cpp) is stored without a heap box.
  static constexpr std::size_t kCallbackBytes = 48;
  using Callback = InlineFunction<void(), kCallbackBytes>;

  /// Handle for cancelling a scheduled event.  Default-constructed handles
  /// are inert; cancel() on an already-fired event is a no-op.  A handle
  /// references its engine and must not be used after the engine is
  /// destroyed.
  class EventId {
   public:
    EventId() = default;
    /// True while the event is still pending (not fired, not cancelled).
    bool valid() const;

   private:
    friend class Engine;
    EventId(const Engine* owner, std::uint32_t slot, std::uint32_t gen)
        : owner_(owner), slot_(slot), gen_(gen) {}
    const Engine* owner_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (must be >= now()).  Callbacks are
  /// taken by rvalue reference (a lambda converts to a temporary) so the
  /// calendar moves each one once, into its slot.
  EventId schedule_at(Time t, Callback&& cb);

  /// Schedule `cb` `dt` after the current time.  Throws std::logic_error
  /// when now() + dt does not fit in Time (e.g. a zero-bandwidth
  /// serialization delay) instead of wrapping into the past.
  EventId schedule_in(Time dt, Callback&& cb);

  /// Cancel a previously scheduled event.  Safe on fired/invalid ids.
  /// Presenting a handle minted by a *different* engine is a no-op on this
  /// calendar, but with per-domain engines (sim/pdes.hpp) it almost always
  /// means a cross-domain cancel bug — when a DomainChecker is bound it is
  /// reported as a violation (strict throws, collect records, off stays
  /// silent).  The foreign event is never touched either way.
  void cancel(EventId& id);

  /// Run the earliest pending event.  Returns false if the calendar is empty.
  bool step();

  /// Run until the calendar is empty.
  void run();

  /// Run events with time <= t, then set now() = t.  An empty calendar
  /// (the closed-loop miss path's case) only advances the clock.
  void run_until(Time t) {
    if (live_ == 0) {
      heap_.clear();  // nothing but stale entries, if anything
      if (t > now_) now_ = t;
      return;
    }
    run_events_until(t);
  }

  /// Run events with time strictly < t; now() is left at the last executed
  /// event (NOT advanced to t).  This is the PDES window primitive: a
  /// domain executes its slice of [window, horizon) without claiming to
  /// have reached the horizon, so cross-domain arrivals scheduled exactly
  /// at the horizon are still in this calendar's future.  Returns the
  /// earliest live event time left (>= t), or kTimeNever when the calendar
  /// is empty -- the same value next_event_time() would report.
  Time run_before(Time t);

  /// Earliest live event time, or nullopt when the calendar is empty.
  /// Prunes stale (cancelled) queue heads as a side effect.
  std::optional<Time> next_event_time();

  /// Run until `stop` returns true (checked after every event) or the
  /// calendar empties.  Returns true if `stop` triggered the halt.
  bool run_while_pending(const std::function<bool()>& stop);

  /// Number of live (non-cancelled) scheduled events.
  std::size_t pending() const { return live_; }

  /// Total events executed since construction (for tests / reporting).
  std::uint64_t executed() const { return executed_; }

  /// Wire up foreign-handle cancel reporting: `self` names the domain this
  /// calendar belongs to in violation reports.  Unbound engines (the
  /// default, and every pre-PDES caller) keep the historical silent no-op.
  void bind_domain_checker(DomainChecker* checker, DomainId self) {
    checker_ = checker;
    domain_id_ = self;
  }
  DomainId domain_id() const { return domain_id_; }

 private:
  /// Calendar entry, ordered by (time, seq).  `gen` is the slot's generation
  /// when the event was scheduled; the entry is live while they still match.
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static_assert(sizeof(Entry) == 24);

  /// (time, seq) order as one 128-bit key: a compare is a subtract with
  /// borrow, so selecting the least of four children needs no branch.
  static unsigned __int128 key(const Entry& e) {
    return (static_cast<unsigned __int128>(e.time) << 64) | e.seq;
  }
  static constexpr std::size_t kArity = 4;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void heap_push(const Entry& e);
  void heap_pop();
  /// The earliest live entry, popping stale ones off the top first; nullptr
  /// when the calendar is empty.
  const Entry* live_top();
  /// Pop the (live) top entry and run its callback.
  void fire_top();
  void run_events_until(Time t);
  void report_foreign_cancel(const EventId& id) const;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Callback> callbacks_;     // per slot; empty when released
  std::vector<std::uint32_t> gens_;     // per slot; odd while pending
  std::vector<std::uint32_t> free_;     // released slot indices, LIFO reuse
  std::vector<Entry> heap_;             // 4-ary min-heap on key()
  DomainChecker* checker_ = nullptr;  // foreign-cancel reporting (optional)
  DomainId domain_id_ = kNoDomain;
};

inline bool Engine::EventId::valid() const {
  return owner_ != nullptr && slot_ < owner_->gens_.size() &&
         owner_->gens_[slot_] == gen_;
}

}  // namespace tfsim::sim
