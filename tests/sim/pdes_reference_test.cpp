// Differential test: ParallelEngine's cached window protocol against the
// scan-every-domain window loop it replaced, kept here as the reference
// model.  The reference opens each window at the minimum of every calendar's
// next_event_time() and runs run_before(horizon) on every domain, using only
// the public Engine API.  Seeded random workloads -- zero-delay self-sends,
// cross-domain posts landing exactly at the horizon, cancels of a domain's
// head event, a long-idle domain, and a second run() after setup-time
// schedules -- must give identical per-domain execution traces and window
// counts.  A fan-in workload, where several domains post to one sink at one
// timestamp in the same window, pins the sequencing of same-time arrivals
// (the posted-source flush against the reference's scan of every outbox).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/pdes.hpp"
#include "sim/rng.hpp"

namespace tfsim::sim {
namespace {

/// The scan-every-domain barrier-window loop, verbatim in behaviour.
class ScanReference {
 public:
  ScanReference(std::size_t num_domains, Time lookahead)
      : lookahead_(lookahead), outboxes_(num_domains) {
    for (std::size_t d = 0; d < num_domains; ++d) {
      domains_.push_back(std::make_unique<Engine>());
    }
  }

  Engine& domain(DomainId d) { return *domains_[d]; }
  Time horizon() const { return horizon_; }
  std::uint64_t windows() const { return windows_; }

  void post(DomainId src, DomainId dst, Time t, Engine::Callback cb) {
    if (!running_ || src == dst) {
      domains_[dst]->schedule_at(t, std::move(cb));
      return;
    }
    ASSERT_GE(t, horizon_);
    outboxes_[src].push_back(Pending{dst, t, std::move(cb)});
  }

  void run() {
    running_ = true;
    for (;;) {
      Time t = kTimeNever;
      for (const auto& d : domains_) {
        const std::optional<Time> next = d->next_event_time();
        if (next.has_value() && *next < t) t = *next;
      }
      if (t == kTimeNever) break;
      horizon_ = (t > kTimeNever - lookahead_) ? kTimeNever : t + lookahead_;
      ++windows_;
      for (const auto& d : domains_) d->run_before(horizon_);
      for (auto& box : outboxes_) {
        for (Pending& p : box) {
          domains_[p.dst]->schedule_at(p.time, std::move(p.cb));
        }
        box.clear();
      }
    }
    running_ = false;
  }

 private:
  struct Pending {
    DomainId dst;
    Time time;
    Engine::Callback cb;
  };
  Time lookahead_;
  std::vector<std::unique_ptr<Engine>> domains_;
  std::vector<std::vector<Pending>> outboxes_;
  bool running_ = false;
  Time horizon_ = 0;
  std::uint64_t windows_ = 0;
};

constexpr std::size_t kDomains = 8;
constexpr Time kLookahead = 100;
/// The last domain is long-idle: nothing posts to it, and its only events
/// come from one far-future setup-time schedule per run.  Domains
/// [0, kIdle) are busy.
constexpr std::size_t kIdle = kDomains - 1;

/// One trace entry per executed event: (simulated time, event tag).
using Trace = std::vector<std::pair<Time, std::uint64_t>>;

/// Seeded random workload over either scheduler.  Every piece of state is
/// owned by one domain and only touched by that domain's events.
template <class Sched>
class Workload {
 public:
  Workload(Sched& sched, std::uint64_t seed) : sched_(sched) {
    for (std::size_t d = 0; d < kDomains; ++d) {
      state_.push_back(State{Rng(seed * 1000 + d), {}, {}, 60, 0});
    }
  }

  /// Setup-time events for one run(): a few chain starts on the busy
  /// domains (alternately via post() and direct schedule_at), and one
  /// far-future wake-up for the idle domain.
  void seed(std::uint64_t round) {
    // Restart from the latest clock: a domain that ran ahead in the
    // previous run must not receive posts in its past.
    Time base = 0;
    for (std::size_t d = 0; d < kDomains; ++d) {
      base = std::max(base, sched_.domain(static_cast<DomainId>(d)).now());
    }
    for (std::size_t d = 0; d < kIdle; ++d) {
      const auto dom = static_cast<DomainId>(d);
      State& st = state_[d];
      st.budget += 60;
      const Time start = base + st.rng.uniform_u64(3 * kLookahead);
      if ((d + round) % 2 == 0) {
        sched_.post(dom, dom, start, spawn(dom, dom));
      } else {
        sched_.domain(dom).schedule_at(start, spawn(dom, dom));
      }
    }
    const auto idle = static_cast<DomainId>(kIdle);
    state_[kIdle].budget += 3;
    sched_.domain(idle).schedule_at(base + 40 * kLookahead, spawn(idle, idle));
  }

  std::vector<Trace> traces() const {
    std::vector<Trace> out;
    for (const State& st : state_) out.push_back(st.trace);
    return out;
  }

 private:
  struct State {
    Rng rng;
    Trace trace;
    std::vector<Engine::EventId> victims;
    int budget;
    std::uint64_t next_tag;
  };

  /// A callback that runs in `dst`, tagged by the spawning domain `src`.
  Engine::Callback spawn(DomainId src, DomainId dst) {
    const std::uint64_t tag = (std::uint64_t{src} << 32) | state_[src].next_tag++;
    return [this, dst, tag] { fire(dst, tag); };
  }

  DomainId random_busy(State& st) {
    return static_cast<DomainId>(st.rng.uniform_u64(kIdle));
  }

  void fire(DomainId d, std::uint64_t tag) {
    State& st = state_[d];
    Engine& self = sched_.domain(d);
    const Time now = self.now();
    st.trace.emplace_back(now, tag);
    if (st.budget <= 0) return;
    --st.budget;
    switch (st.rng.uniform_u64(6)) {
      case 0:  // zero-delay self-send
        sched_.post(d, d, now, spawn(d, d));
        break;
      case 1: {  // cross-domain post landing exactly at the horizon
        const DomainId dst = random_busy(st);
        sched_.post(d, dst, sched_.horizon(), spawn(d, dst));
        break;
      }
      case 2: {  // cross-domain post beyond the horizon
        const DomainId dst = random_busy(st);
        const Time at = sched_.horizon() + st.rng.uniform_u64(4 * kLookahead);
        sched_.post(d, dst, at, spawn(d, dst));
        break;
      }
      case 3: {  // a victim just ahead, likely the calendar's next head
        const Time at = now + 1 + st.rng.uniform_u64(kLookahead / 4);
        st.victims.push_back(self.schedule_at(at, spawn(d, d)));
        break;
      }
      case 4:  // cancel the oldest victim (fired ones cancel as a no-op)
        if (!st.victims.empty()) {
          self.cancel(st.victims.front());
          st.victims.erase(st.victims.begin());
        }
        break;
      default:
        break;
    }
    // Keep the chain alive: one continuation within a few windows.
    self.schedule_at(now + st.rng.uniform_u64(2 * kLookahead), spawn(d, d));
  }

  Sched& sched_;
  std::vector<State> state_;
};

struct Outcome {
  std::vector<Trace> traces;
  std::vector<std::uint64_t> windows;  // after each run()
};

template <class Sched>
Outcome drive(Sched& sched, std::uint64_t seed) {
  Workload<Sched> w(sched, seed);
  Outcome out;
  for (std::uint64_t round = 0; round < 2; ++round) {
    w.seed(round);
    sched.run();
    out.windows.push_back(sched.windows());
  }
  out.traces = w.traces();
  return out;
}

Outcome reference(std::uint64_t seed) {
  ScanReference ref(kDomains, kLookahead);
  return drive(ref, seed);
}

Outcome cached(std::uint64_t seed) {
  ParallelEngine pdes(kDomains, PdesConfig{1, kLookahead});
  return drive(pdes, seed);
}

TEST(PdesReferenceTest, CachedWindowsMatchScanEveryDomain) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    const Outcome ref = reference(seed);
    // The workload must exercise what the cache has to get right.
    std::size_t events = 0;
    for (const Trace& t : ref.traces) events += t.size();
    ASSERT_GT(events, 500u);
    ASSERT_FALSE(ref.traces[kIdle].empty()) << "idle domain never woke";
    ASSERT_GT(ref.windows[1], ref.windows[0]) << "second run opened no window";
    const Outcome got = cached(seed);
    EXPECT_EQ(got.windows, ref.windows);
    for (std::size_t d = 0; d < kDomains; ++d) {
      EXPECT_EQ(got.traces[d], ref.traces[d]) << "domain " << d;
    }
  }
}

/// Fan-in workload: every domain keeps a chain alive, and most events send
/// zero to two posts to one of two sinks, at the window's horizon or one
/// lookahead past it.  Several sources -- and several sends from one
/// source -- therefore land on one sink at one timestamp from one window,
/// and only the flush order sequences them.  Staggered starts leave some
/// domains without events (and without posts) in the early windows.
template <class Sched>
class FanIn {
 public:
  static constexpr DomainId kSinks[2] = {0, 3};

  FanIn(Sched& sched, std::uint64_t seed) : sched_(sched) {
    for (std::size_t d = 0; d < kDomains; ++d) {
      state_.push_back(State{Rng(seed * 7919 + d), {}, 40, 0});
    }
    for (std::size_t d = 0; d < kDomains; ++d) {
      const auto dom = static_cast<DomainId>(d);
      const Time start =
          (d % 3) * kLookahead + state_[d].rng.uniform_u64(kLookahead);
      sched_.post(dom, dom, start, spawn(dom));
    }
  }

  std::vector<Trace> traces() const {
    std::vector<Trace> out;
    for (const State& st : state_) out.push_back(st.trace);
    return out;
  }

 private:
  struct State {
    Rng rng;
    Trace trace;
    int budget;
    std::uint64_t next_tag;
  };

  /// A callback tagged by the spawning domain `src`; `dst` runs it.
  Engine::Callback spawn(DomainId src, DomainId dst) {
    const std::uint64_t tag = (std::uint64_t{src} << 32) | state_[src].next_tag++;
    return [this, dst, tag] { fire(dst, tag); };
  }
  Engine::Callback spawn(DomainId d) { return spawn(d, d); }

  void fire(DomainId d, std::uint64_t tag) {
    State& st = state_[d];
    Engine& self = sched_.domain(d);
    st.trace.emplace_back(self.now(), tag);
    if (st.budget <= 0) return;
    --st.budget;
    const std::uint64_t sends = st.rng.uniform_u64(3);
    for (std::uint64_t i = 0; i < sends; ++i) {
      const DomainId sink = kSinks[st.rng.uniform_u64(2)];
      if (sink == d) continue;
      const Time at = sched_.horizon() + kLookahead * st.rng.uniform_u64(2);
      sched_.post(d, sink, at, spawn(d, sink));
    }
    self.schedule_at(self.now() + 1 + st.rng.uniform_u64(kLookahead),
                     spawn(d));
  }

  Sched& sched_;
  std::vector<State> state_;
};

template <class Sched>
Outcome drive_fan_in(Sched& sched, std::uint64_t seed) {
  FanIn<Sched> w(sched, seed);
  sched.run();
  return Outcome{w.traces(), {sched.windows()}};
}

/// Timestamps at which one domain ran events spawned by two or more
/// different source domains.
std::size_t multi_source_instants(const Trace& trace) {
  std::size_t instants = 0;
  for (std::size_t i = 0; i < trace.size();) {
    std::size_t j = i;
    bool mixed = false;
    while (j < trace.size() && trace[j].first == trace[i].first) {
      mixed = mixed || (trace[j].second >> 32) != (trace[i].second >> 32);
      ++j;
    }
    instants += mixed ? 1 : 0;
    i = j;
  }
  return instants;
}

TEST(PdesReferenceTest, SameTimeFanInSequencedLikeScanEveryDomain) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    ScanReference ref_sched(kDomains, kLookahead);
    const Outcome ref = drive_fan_in(ref_sched, seed);
    // The workload must actually converge: same-time arrivals from several
    // sources at each sink.
    for (const DomainId sink : FanIn<ScanReference>::kSinks) {
      ASSERT_GT(multi_source_instants(ref.traces[sink]), 5u) << "sink " << sink;
    }
    ParallelEngine pdes(kDomains, PdesConfig{1, kLookahead});
    const Outcome got = drive_fan_in(pdes, seed);
    EXPECT_EQ(got.windows, ref.windows);
    for (std::size_t d = 0; d < kDomains; ++d) {
      EXPECT_EQ(got.traces[d], ref.traces[d]) << "domain " << d;
    }
  }
}

TEST(PdesReferenceTest, CancelledHeadDoesNotOpenAWindow) {
  // Domain 0 cancels its own next head during its slice; the window after
  // it must open at the surviving event, exactly as a full scan would.
  ParallelEngine pdes(2, PdesConfig{1, kLookahead});
  std::vector<Time> fired;
  Engine& d0 = pdes.domain(0);
  Engine::EventId victim =
      d0.schedule_at(kLookahead + 10, [&] { fired.push_back(d0.now()); });
  d0.schedule_at(0, [&] { d0.cancel(victim); });
  d0.schedule_at(7 * kLookahead, [&] { fired.push_back(d0.now()); });
  pdes.run();
  EXPECT_EQ(fired, (std::vector<Time>{7 * kLookahead}));
  EXPECT_EQ(pdes.windows(), 2u);
}

}  // namespace
}  // namespace tfsim::sim
