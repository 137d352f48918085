#include "sim/engine.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace tfsim::sim {

std::uint32_t Engine::acquire_slot() {
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(gens_.size());
    callbacks_.emplace_back();
    gens_.push_back(0);
  }
  ++gens_[idx];  // odd: pending
  return idx;
}

void Engine::release_slot(std::uint32_t idx) {
  ++gens_[idx];  // even: invalidates outstanding handles and heap entries
  free_.push_back(idx);
}

void Engine::heap_push(const Entry& e) {
  // Sift a hole up from the new leaf.  A new event usually sorts after its
  // parent (later time or, at equal time, a larger seq), so this is short.
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  Entry* h = heap_.data();
  const auto k = key(e);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (key(h[parent]) <= k) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = e;
}

void Engine::heap_pop() {
  // Move the last leaf into the root's hole and sift it down, always taking
  // the least of the (up to four) children.
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  Entry* h = heap_.data();
  const auto k = key(last);
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    if (first + kArity <= n) {
      // All four children exist: two independent pairwise picks, then the
      // final one, each a conditional move on the 128-bit key.
      const std::size_t a = key(h[first + 1]) < key(h[first]) ? first + 1
                                                               : first;
      const std::size_t b = key(h[first + 3]) < key(h[first + 2]) ? first + 3
                                                                   : first + 2;
      best = key(h[b]) < key(h[a]) ? b : a;
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (key(h[c]) < key(h[best])) best = c;
      }
    }
    if (k <= key(h[best])) break;
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = last;
}

Engine::EventId Engine::schedule_at(Time t, Callback&& cb) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time is in the past");
  }
  const std::uint32_t idx = acquire_slot();
  callbacks_[idx] = std::move(cb);
  const std::uint32_t gen = gens_[idx];
  heap_push(Entry{t, next_seq_++, idx, gen});
  ++live_;
  return EventId(this, idx, gen);
}

Engine::EventId Engine::schedule_in(Time dt, Callback&& cb) {
  if (dt > kTimeNever - now_) {
    throw std::logic_error(
        "Engine::schedule_in: now + dt overflows simulated time (now=" +
        std::to_string(now_) + " ps, dt=" + std::to_string(dt) + " ps)");
  }
  return schedule_at(now_ + dt, std::move(cb));
}

void Engine::cancel(EventId& id) {
  if (id.owner_ != nullptr && id.owner_ != this) {
    // Foreign handle: minted by another engine.  Historically a silent
    // no-op; with per-domain calendars it masks cross-domain cancel bugs,
    // so report it when a checker is bound (strict mode throws).
    report_foreign_cancel(id);
  } else if (id.valid()) {
    callbacks_[id.slot_] = nullptr;  // drop the captures now
    release_slot(id.slot_);
    assert(live_ > 0);
    --live_;
  }
  id = EventId{};
}

void Engine::report_foreign_cancel(const EventId& id) const {
  if (checker_ == nullptr || checker_->mode() == DomainCheckMode::kOff) {
    return;
  }
  DomainViolation v;
  v.object = "Engine";
  v.what = "Engine::cancel (handle minted by a different engine)";
  v.owner = id.owner_->domain_id_;
  v.active = domain_id_;
  v.owner_name = checker_->domain_name(v.owner);
  v.active_name = checker_->domain_name(v.active);
  v.guard_label = "engine:foreign-cancel";
  v.when = now_;
  v.event_index = executed_;
  checker_->report(std::move(v));
}

const Engine::Entry* Engine::live_top() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (gens_[top.slot] == top.gen) return &top;
    heap_pop();  // stale: cancelled, or the slot was released and reused
  }
  return nullptr;
}

void Engine::fire_top() {
  const Entry ev = heap_.front();
  heap_pop();
  assert(ev.time >= now_);
  now_ = ev.time;
  // Move the callback out before releasing: it may schedule new events that
  // immediately reuse this slot under a fresh generation.
  Callback cb = std::move(callbacks_[ev.slot]);
  release_slot(ev.slot);
  --live_;
  ++executed_;
  cb();
}

// step, run_until and run_before share one loop shape: look at the earliest
// live entry once, stop or fire it.

bool Engine::step() {
  if (live_top() == nullptr) return false;
  fire_top();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_events_until(Time t) {
  for (const Entry* e = live_top(); e != nullptr && e->time <= t;
       e = live_top()) {
    fire_top();
  }
  if (t > now_) now_ = t;
}

Time Engine::run_before(Time t) {
  for (;;) {
    const Entry* e = live_top();
    if (e == nullptr) return kTimeNever;
    if (e->time >= t) return e->time;
    fire_top();
  }
}

std::optional<Time> Engine::next_event_time() {
  const Entry* e = live_top();
  if (e == nullptr) return std::nullopt;
  return e->time;
}

bool Engine::run_while_pending(const std::function<bool()>& stop) {
  while (!stop()) {
    if (!step()) return false;
  }
  return true;
}

}  // namespace tfsim::sim
