// Intra-run parallel discrete-event simulation (PDES): per-domain slab
// calendars behind a conservative barrier-window facade.
//
// SweepRunner parallelizes *across* sweep points; ParallelEngine makes one
// big scenario use all cores.  The design follows the classic conservative
// (Chandy-Misra style, barrier-window variant) recipe, specialized to this
// simulator's invariants:
//
//  * One Engine calendar per domain (node partition; sim/domain.hpp
//    ownership, proven event-dispatch-local by the runtime DomainChecker
//    and simlint R1-R5).  Events scheduled on a domain's calendar only
//    mutate that domain's state.
//  * Links are the sync boundary: a frame cannot arrive before
//    `now + prop_delay`, so the minimum propagation delay over the fabric
//    is a sound lookahead.  Cross-domain effects travel exclusively
//    through post(), which enforces `t >= horizon()` while a window is
//    executing.
//  * Execution advances in windows [T, T + lookahead): every domain with
//    an event before the horizon runs its events with time < horizon
//    independently (in parallel), then a barrier flushes the cross-domain
//    outboxes into the target calendars in a fixed order (source-domain
//    id, send order) and opens the next window at the new global minimum
//    event time.  That minimum comes from a cached per-domain next-event
//    time, so a window costs O(domains) array reads plus the work of the
//    domains that actually have events -- idle calendars are not probed.
//
// Determinism is inherited from the sweep runner's contract and is
// non-negotiable: for a fixed (domains, lookahead, workload), every thread
// count — including the inline serial fallback — executes byte-identical
// per-domain event sequences.  Each domain's calendar is a deterministic
// (time, seq) queue; outbox flushing is deterministic because per-domain
// execution is; therefore thread scheduling can change wall-clock time
// only, never results.  determinism_check scenario 8 and
// tests/property/pdes_property_test.cpp enforce this continuously.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/domain.hpp"
#include "sim/engine.hpp"
#include "sim/units.hpp"

namespace tfsim::sim {

struct PdesConfig {
  /// Worker threads executing domain windows.  0 or 1 = run every window
  /// inline on the calling thread (the serial reference the determinism
  /// digests compare against); N > 1 = a pool of N workers.
  unsigned threads = 0;
  /// Conservative sync horizon; must be > 0 before run().  Derive it from
  /// the fabric (net::Network::min_propagation()) or set it explicitly.
  Time lookahead = 0;

  /// Worker count from $TFSIM_PDES: unset/empty/"off" -> 0 (PDES off),
  /// 0 -> one worker per hardware thread, N -> N workers.  Junk, negative
  /// and overflowing values are rejected with a warning (see
  /// sim::env_thread_count); oversized values clamp to kMaxEnvThreads.
  static unsigned threads_from_env();
};

class ParallelEngine {
 public:
  /// `num_domains` fixed at construction; domain ids are [0, num_domains).
  explicit ParallelEngine(std::size_t num_domains, PdesConfig cfg = {});
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  std::size_t num_domains() const { return domains_.size(); }
  unsigned threads() const { return cfg_.threads; }
  Time lookahead() const { return cfg_.lookahead; }
  /// Reconfigure the sync horizon (illegal while run() is executing).
  void set_lookahead(Time lookahead);

  /// Domain d's calendar.  Full Engine API *within* the domain: events it
  /// schedules on itself (any time >= its now()) never synchronize.
  Engine& domain(DomainId d) { return *domains_.at(d); }
  const Engine& domain(DomainId d) const { return *domains_.at(d); }

  /// Cross-domain conservative send: run `cb` in domain `dst` at absolute
  /// time `t`.  `src` must be the posting domain (the one whose event is
  /// executing).  While a window is open, a send to a different domain
  /// must respect the lookahead horizon (`t >= horizon()`); sends to the
  /// posting domain itself are unconstrained beyond `t >= now()` —
  /// zero-delay self-sends are legal.  Outside run() (setup), posts
  /// schedule directly into the target calendar.
  void post(DomainId src, DomainId dst, Time t, Engine::Callback cb);

  /// Execute barrier windows until every calendar is empty.  May be called
  /// repeatedly; throws std::logic_error when lookahead <= 0.  If a domain
  /// callback throws, the run aborts at the window barrier and the first
  /// failing domain's exception (lowest id) is rethrown; calendar state
  /// after an aborted run is unspecified.
  void run();

  /// True while run() is executing (post() uses this to pick the
  /// setup-time vs windowed path).
  bool running() const { return running_; }
  /// Start of the current window (meaningful while running()).
  Time window_start() const { return window_start_; }
  /// End of the current window: cross-domain sends must land at or after
  /// this time.
  Time horizon() const { return horizon_; }

  /// Barrier windows executed since construction.
  std::uint64_t windows() const { return windows_; }
  /// Total events executed across every domain.
  std::uint64_t executed() const;
  /// Live events pending across every domain (outboxes are always empty
  /// between runs).
  std::size_t pending() const;

 private:
  struct Pending {
    DomainId dst = 0;
    Time time = 0;
    Engine::Callback cb;
  };

  /// Move every outbox entry into its target calendar, in (source domain,
  /// send order) order — the deterministic tie-break for same-timestamp
  /// cross-domain arrivals.
  void flush_outboxes();
  /// Open the window at the global minimum event time.  False when idle.
  bool begin_window();
  /// Run domain d's slice of the current window.
  void execute_domain(std::size_t d);
  void run_serial();
  void run_parallel();

  PdesConfig cfg_;
  std::vector<std::unique_ptr<Engine>> domains_;
  std::vector<std::vector<Pending>> outboxes_;  ///< per source domain
  std::vector<std::exception_ptr> errors_;      ///< per domain, this window
  /// Per domain: earliest live event time (kTimeNever when empty), valid
  /// between windows.  Only a domain's own window slice and the barrier
  /// flush change its calendar during run(), and both update this entry, so
  /// begin_window() and execute_domain() never probe an idle calendar.
  std::vector<Time> next_;
  bool running_ = false;
  bool aborted_ = false;
  Time window_start_ = 0;
  Time horizon_ = 0;
  std::uint64_t windows_ = 0;
};

}  // namespace tfsim::sim
