// Per-domain calendars behind a conservative lookahead-window facade.
//
// One big scenario is partitioned by node into calendars that advance in
// lockstep windows.  The partition is the ownership model (sim/domain.hpp):
// it is what the runtime DomainChecker and simlint R1-R5 audit, and what
// Network::post_routed relies on to forward hop by hop.  The design follows
// the classic conservative (Chandy-Misra style, barrier-window variant)
// recipe, specialized to this simulator's invariants:
//
//  * One Engine calendar per domain (node partition).  Events scheduled on
//    a domain's calendar only mutate that domain's state.
//  * Links are the sync boundary: a frame cannot arrive before
//    `now + prop_delay`, so the minimum propagation delay over the fabric
//    is a sound lookahead.  Cross-domain effects travel exclusively
//    through post(), which enforces `t >= horizon()` while a window is
//    executing.
//  * Execution advances in windows [T, T + lookahead): every domain with
//    an event before the horizon runs its events with time < horizon, in
//    domain-id order, then the cross-domain outboxes are flushed into the
//    target calendars in a fixed order (source-domain id, send order) and
//    the next window opens at the new global minimum event time.  That
//    minimum comes from a cached per-domain next-event time, so a window
//    costs O(domains) array reads plus the work of the domains that
//    actually have events -- idle calendars are not probed, and only the
//    domains that posted are visited by the flush.
//
// Windows run serially on the calling thread: measured on the checked-in
// rack scenarios, a window holds a handful of events, far too little work
// to pay for a thread barrier.  Sweeps parallelize across points instead
// (sim::SweepRunner).  Results are a pure function of (domains, lookahead,
// workload); the golden digest table (tests/golden/digests.txt) pins the
// digests, event counts and window counts of the reference runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/domain.hpp"
#include "sim/engine.hpp"
#include "sim/units.hpp"

namespace tfsim::sim {

struct PdesConfig {
  /// The scenario's pdes.threads switch: 0 or 1, both meaning the windows
  /// run serially on the calling thread.  Values above 1 are rejected.
  unsigned threads = 0;
  /// Conservative sync horizon; must be > 0 before run().  Derive it from
  /// the fabric (net::Network::min_propagation()) or set it explicitly.
  Time lookahead = 0;
};

class ParallelEngine {
 public:
  /// `num_domains` fixed at construction; domain ids are [0, num_domains).
  /// Throws std::invalid_argument when cfg.threads > 1.
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
  void post(DomainId src, DomainId dst, Time t, Engine::Callback&& cb);

  /// Execute windows until every calendar is empty.  May be called
  /// repeatedly; throws std::logic_error when lookahead <= 0.  A domain
  /// callback's exception aborts the run and propagates (domains run in id
  /// order, so the lowest failing id wins).  An aborted run discards the
  /// window's buffered cross-domain posts; the calendars keep whatever
  /// events they hold, so a later run() resumes from them.
  void run();

  /// True while run() is executing (post() uses this to pick the
  /// setup-time vs windowed path).
  bool running() const { return running_; }
  /// Start of the current window (meaningful while running()).
  Time window_start() const { return window_start_; }
  /// End of the current window: cross-domain sends must land at or after
  /// this time.
  Time horizon() const { return horizon_; }

  /// Windows executed since construction.
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
  /// Open the window at the global minimum event time and list the domains
  /// with an event before its horizon.  False when idle.
  bool begin_window();

  PdesConfig cfg_;
  std::vector<std::unique_ptr<Engine>> domains_;
  std::vector<std::vector<Pending>> outboxes_;  ///< per source domain
  /// Source domains whose outbox is non-empty, in the order their first
  /// post of the window arrived.  The flush sorts it, so it visits exactly
  /// the (source domain, send order) sequence a scan of every outbox would.
  std::vector<DomainId> posted_;
  /// Per domain: earliest live event time (kTimeNever when empty), valid
  /// between windows.  Only a domain's own window slice and the outbox
  /// flush change its calendar during run(), and both update this entry, so
  /// begin_window() never probes a calendar.
  std::vector<Time> next_;
  /// The current window's domains with next_ < horizon, ascending; the
  /// first active_count_ entries are valid.
  std::vector<DomainId> active_;
  std::size_t active_count_ = 0;
  bool running_ = false;
  Time window_start_ = 0;
  Time horizon_ = 0;
  std::uint64_t windows_ = 0;
};

}  // namespace tfsim::sim
