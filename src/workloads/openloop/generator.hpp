// Open-loop traffic source: multiplexes a large simulated client population
// over one borrower node with a bounded dispatch window and explicit
// overload accounting.
//
// Arrivals come from an ArrivalProcess regardless of service progress.  A
// request that cannot dispatch immediately (window full) waits in a bounded
// queue; when the queue is also full it is shed on the spot.  Every request
// the source ever saw is in exactly one terminal or transient bucket —
// offered == completed + shed + rejected + failed + in_flight + queued at
// every instant — which is the invariant the property tests pin at drain
// points.
//
// Determinism contract: the source touches only its own engine (the
// borrower's calendar under PDES) and its private RNG stream.  The sink is
// handed a completion functor and must call it exactly once from the same
// domain; sinks that never answer (dead lender, lost frame) are covered by
// the source's own timeout.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "workloads/openloop/arrivals.hpp"

namespace tfsim::workloads {

/// Terminal state of a request.
enum class RequestOutcome {
  kCompleted,  ///< response arrived before the timeout
  kShed,       ///< dropped locally: dispatch window and queue both full
  kRejected,   ///< refused downstream (QoS credit exhaustion)
  kFailed,     ///< timed out: lost frame or dead lender
};

struct OpenLoopConfig {
  ArrivalConfig arrivals;
  std::uint32_t max_in_flight = 64;  ///< dispatch window
  std::uint32_t queue_depth = 128;   ///< waiting room; overflow is shed
  sim::Time stop_at = 0;             ///< no arrivals at or after this time
  sim::Time request_timeout = 0;     ///< 0 = wait forever
};

struct OpenLoopCounters {
  std::uint64_t offered = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t queued = 0;

  /// Conservation law: every offered request is in exactly one bucket.
  bool balanced() const {
    return offered ==
           completed + shed + rejected + failed + in_flight + queued;
  }
};

class OpenLoopSource {
 public:
  /// The sink's handle on one dispatched request: it reports the request's
  /// fate (kCompleted or kRejected) at the given time; calling it after the
  /// source's timeout already fired is a harmless no-op (the late response
  /// is dropped, as on a real NIC).  Two words and trivially copyable, so
  /// an event that carries it stays small and moves as a memcpy.  It must
  /// not outlive its source.
  class CompletionFn {
   public:
    void operator()(sim::Time t, RequestOutcome outcome) const {
      source_->finish(id_, t, outcome);
    }

   private:
    friend class OpenLoopSource;
    CompletionFn(OpenLoopSource* source, std::uint64_t id)
        : source_(source), id_(id) {}
    OpenLoopSource* source_;
    std::uint64_t id_;
  };
  /// Invoked on the source's engine when a request enters service.
  using DispatchFn =
      std::function<void(sim::Time now, std::uint64_t req_id, CompletionFn)>;
  /// Request id reported to the observer for requests shed before dispatch
  /// (they never received one).
  static constexpr std::uint64_t kNoRequestId = ~std::uint64_t{0};
  /// Per-request record, fired once per offered request at its terminal
  /// transition (arrival == terminal time for shed requests).  `req_id` is
  /// the dispatch id (the same one the DispatchFn saw) so control layers
  /// can attribute outcomes — including timeouts, which never pass through
  /// the sink's CompletionFn — to the requests they tagged; kNoRequestId
  /// for shed requests.
  using ObserverFn = std::function<void(sim::Time arrival, sim::Time terminal,
                                        RequestOutcome outcome,
                                        std::uint64_t req_id)>;

  OpenLoopSource(sim::Engine& engine, OpenLoopConfig cfg, DispatchFn dispatch);

  void set_observer(ObserverFn observer) { observer_ = std::move(observer); }

  /// Schedule the first arrival.  No-op when the process is idle (rate 0)
  /// or the first arrival already lies at or past stop_at.
  void start();

  const OpenLoopCounters& counters() const { return counters_; }
  const OpenLoopConfig& config() const { return cfg_; }

 private:
  struct Pending {
    sim::Time arrival = 0;
    sim::Engine::EventId timeout;
    bool live = false;  ///< dispatched and not yet finished
  };

  void on_arrival(sim::Time t);
  void schedule_next_arrival();
  void dispatch(sim::Time now, sim::Time arrival);
  void finish(std::uint64_t req_id, sim::Time t, RequestOutcome outcome);
  void drain_queue(sim::Time now);
  /// The pending record of `req_id`, or nullptr once it has finished.
  Pending* find_pending(std::uint64_t req_id);
  /// Double the ring, re-laying every unfinished id at its new index.
  void grow_pending();

  sim::Engine& engine_;
  OpenLoopConfig cfg_;
  DispatchFn dispatch_;
  ObserverFn observer_;
  ArrivalProcess arrivals_;
  OpenLoopCounters counters_;
  std::uint64_t next_req_id_ = 0;
  /// Dispatched requests by id.  Ids are dense and increasing, so a
  /// power-of-two ring indexed by id covers [pending_base_, next_req_id_):
  /// pending_base_ is the oldest unfinished id, and finishing it advances
  /// the base past every later id already finished.  The span is the ids
  /// dispatched since the oldest unfinished one -- at most max_in_flight
  /// when requests finish in order, otherwise bounded by what one
  /// request_timeout lets through -- and the ring doubles when it outgrows
  /// its slots.
  std::vector<Pending> pending_;
  std::uint64_t pending_base_ = 0;
  std::deque<sim::Time> queue_;  // arrival times, FIFO
};

}  // namespace tfsim::workloads
