#include "workloads/openloop/generator.hpp"

#include <type_traits>
#include <utility>

namespace tfsim::workloads {

namespace {
constexpr std::size_t kInitialPending = 64;  // a power of two
}  // namespace

static_assert(std::is_trivially_copyable_v<OpenLoopSource::CompletionFn>);

OpenLoopSource::OpenLoopSource(sim::Engine& engine, OpenLoopConfig cfg,
                               DispatchFn dispatch)
    : engine_(engine),
      cfg_(cfg),
      dispatch_(std::move(dispatch)),
      arrivals_(cfg.arrivals),
      pending_(kInitialPending) {}

void OpenLoopSource::start() {
  const sim::Time first = arrivals_.next();
  if (first == sim::kTimeNever || first >= cfg_.stop_at) return;
  engine_.schedule_at(first, [this, first] { on_arrival(first); });
}

void OpenLoopSource::schedule_next_arrival() {
  const sim::Time t = arrivals_.next();
  if (t == sim::kTimeNever || t >= cfg_.stop_at) return;
  engine_.schedule_at(t, [this, t] { on_arrival(t); });
}

void OpenLoopSource::on_arrival(sim::Time t) {
  ++counters_.offered;
  if (counters_.in_flight < cfg_.max_in_flight) {
    dispatch(t, t);
  } else if (counters_.queued < cfg_.queue_depth) {
    ++counters_.queued;
    queue_.push_back(t);
  } else {
    // Overload: the client is turned away immediately.  Open-loop sources
    // must shed — blocking the arrival stream would silently convert the
    // workload back into a closed loop.
    ++counters_.shed;
    if (observer_) observer_(t, t, RequestOutcome::kShed, kNoRequestId);
  }
  schedule_next_arrival();
}

void OpenLoopSource::dispatch(sim::Time now, sim::Time arrival) {
  const std::uint64_t id = next_req_id_;
  if (id - pending_base_ >= pending_.size()) grow_pending();
  ++next_req_id_;
  ++counters_.dispatched;
  ++counters_.in_flight;
  Pending& p = pending_[id & (pending_.size() - 1)];
  p = Pending{.arrival = arrival, .timeout = {}, .live = true};
  if (cfg_.request_timeout > 0) {
    p.timeout = engine_.schedule_in(cfg_.request_timeout, [this, id] {
      finish(id, engine_.now(), RequestOutcome::kFailed);
    });
  }
  dispatch_(now, id, CompletionFn(this, id));
}

void OpenLoopSource::finish(std::uint64_t req_id, sim::Time t,
                            RequestOutcome outcome) {
  Pending* p = find_pending(req_id);
  // Late responses (the timeout already declared the request failed) are
  // dropped, exactly like a NIC completing a replay-abandoned tag.
  if (p == nullptr) return;
  const sim::Time arrival = p->arrival;
  engine_.cancel(p->timeout);
  p->live = false;
  const std::size_t mask = pending_.size() - 1;
  while (pending_base_ < next_req_id_ && !pending_[pending_base_ & mask].live) {
    ++pending_base_;
  }
  --counters_.in_flight;
  switch (outcome) {
    case RequestOutcome::kCompleted: ++counters_.completed; break;
    case RequestOutcome::kRejected: ++counters_.rejected; break;
    case RequestOutcome::kFailed: ++counters_.failed; break;
    case RequestOutcome::kShed: ++counters_.shed; break;  // sinks never shed
  }
  if (observer_) observer_(arrival, t, outcome, req_id);
  drain_queue(t);
}

OpenLoopSource::Pending* OpenLoopSource::find_pending(std::uint64_t req_id) {
  if (req_id < pending_base_ || req_id >= next_req_id_) return nullptr;
  Pending& p = pending_[req_id & (pending_.size() - 1)];
  return p.live ? &p : nullptr;
}

void OpenLoopSource::grow_pending() {
  std::vector<Pending> bigger(pending_.size() * 2);
  const std::size_t old_mask = pending_.size() - 1;
  const std::size_t new_mask = bigger.size() - 1;
  for (std::uint64_t id = pending_base_; id < next_req_id_; ++id) {
    bigger[id & new_mask] = pending_[id & old_mask];
  }
  pending_.swap(bigger);
}

void OpenLoopSource::drain_queue(sim::Time now) {
  while (!queue_.empty() && counters_.in_flight < cfg_.max_in_flight) {
    const sim::Time arrival = queue_.front();
    queue_.pop_front();
    --counters_.queued;
    dispatch(now, arrival);
  }
}

}  // namespace tfsim::workloads
