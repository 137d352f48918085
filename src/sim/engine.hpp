// Discrete-event simulation engine.
//
// A single-threaded event calendar: callbacks scheduled at absolute simulated
// times, executed in (time, insertion-order) order.  Deterministic by
// construction — equal-time events run in the order they were scheduled.
//
// Storage is a slab: callbacks live in pooled slots recycled through a free
// list, and the priority queue holds small trivially-copyable entries that
// reference slots by (index, generation).  Scheduling therefore costs no
// per-event heap allocation (beyond std::function capture storage), and a
// stale handle — cancelled, fired, or slot-reused — is detected by a
// generation mismatch instead of a shared_ptr control block.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "sim/domain.hpp"
#include "sim/units.hpp"

namespace tfsim::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

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
    EventId(const Engine* owner, std::uint32_t slot, std::uint64_t gen)
        : owner_(owner), slot_(slot), gen_(gen) {}
    const Engine* owner_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t gen_ = 0;
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (must be >= now()).
  EventId schedule_at(Time t, Callback cb);

  /// Schedule `cb` `dt` after the current time.  Throws std::logic_error
  /// when now() + dt does not fit in Time (e.g. a zero-bandwidth
  /// serialization delay) instead of wrapping into the past.
  EventId schedule_in(Time dt, Callback cb);

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

  /// Run events with time <= t, then set now() = t.
  void run_until(Time t);

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
  /// Pooled callback storage.  `gen` increments every time the slot is
  /// released (fired or cancelled), invalidating queue entries and handles
  /// minted against the old generation.
  struct Slot {
    Callback cb;
    std::uint64_t gen = 0;
    bool live = false;
  };
  /// Calendar entry: trivially copyable, so popping never needs to move a
  /// callback (or const_cast priority_queue::top()).
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint64_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  bool entry_live(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return s.live && s.gen == e.gen;
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  bool pop_next(Entry& ev);
  void report_foreign_cancel(const EventId& id) const;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // released slot indices, LIFO reuse
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  DomainChecker* checker_ = nullptr;  // foreign-cancel reporting (optional)
  DomainId domain_id_ = kNoDomain;
};

inline bool Engine::EventId::valid() const {
  if (owner_ == nullptr || slot_ >= owner_->slots_.size()) return false;
  const Slot& s = owner_->slots_[slot_];
  return s.live && s.gen == gen_;
}

}  // namespace tfsim::sim
