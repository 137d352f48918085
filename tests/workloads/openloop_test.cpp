// Open-loop arrival processes and the bounded-window source: rate fidelity,
// strict monotonicity, and the offered == sum-of-buckets conservation law
// under completion, shedding, rejection, and timeout.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/units.hpp"
#include "workloads/openloop/arrivals.hpp"
#include "workloads/openloop/generator.hpp"

namespace tfsim::workloads {
namespace {

TEST(ArrivalProcessTest, KindParsingRoundTrips) {
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    EXPECT_EQ(arrival_kind_from(to_string(kind)), kind);
  }
  EXPECT_THROW(arrival_kind_from("uniform"), std::invalid_argument);
  EXPECT_THROW(arrival_kind_from(""), std::invalid_argument);
}

TEST(ArrivalProcessTest, ZeroRateNeverArrives) {
  ArrivalConfig cfg;
  cfg.rate_rps = 0.0;
  ArrivalProcess p(cfg);
  EXPECT_EQ(p.next(), sim::kTimeNever);
}

TEST(ArrivalProcessTest, StrictlyIncreasingForEveryKind) {
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.rate_rps = 1e6;
    cfg.seed = 17;
    ArrivalProcess p(cfg);
    sim::Time prev = 0;
    for (int i = 0; i < 5000; ++i) {
      const sim::Time t = p.next();
      EXPECT_GT(t, prev) << to_string(kind) << " sample " << i;
      prev = t;
    }
  }
}

TEST(ArrivalProcessTest, PoissonMeanMatchesRate) {
  ArrivalConfig cfg;
  cfg.rate_rps = 1e6;  // 1 request/us
  cfg.seed = 5;
  ArrivalProcess p(cfg);
  const int n = 20000;
  sim::Time last = 0;
  for (int i = 0; i < n; ++i) last = p.next();
  const double mean_gap_us = sim::to_us(last) / n;
  EXPECT_NEAR(mean_gap_us, 1.0, 0.03);
}

TEST(ArrivalProcessTest, StreamIsReproducible) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kDiurnal;
  cfg.rate_rps = 2e6;
  cfg.seed = 99;
  ArrivalProcess a(cfg);
  ArrivalProcess b(cfg);
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(a.next(), b.next()) << "sample " << i;
}

TEST(ArrivalProcessTest, BurstyArrivesOnlyInOnPhase) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBursty;
  cfg.rate_rps = 1e6;
  cfg.burst_on_us = 100.0;
  cfg.burst_off_us = 300.0;
  cfg.seed = 3;
  ArrivalProcess p(cfg);
  const sim::Time period = sim::from_us(400.0);
  const sim::Time on = sim::from_us(100.0);
  for (int i = 0; i < 5000; ++i) {
    const sim::Time t = p.next();
    EXPECT_LT(t % period, on) << "arrival " << i << " in the off phase";
  }
}

TEST(ArrivalProcessTest, DiurnalRateSwingsByAmplitude) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kDiurnal;
  cfg.rate_rps = 1e6;
  cfg.diurnal_period_us = 10000.0;
  cfg.diurnal_amplitude = 0.8;
  ArrivalProcess p(cfg);
  const sim::Time peak = sim::from_us(2500.0);    // sin = +1
  const sim::Time trough = sim::from_us(7500.0);  // sin = -1
  EXPECT_NEAR(p.rate_at(peak), 1.8e6, 1e3);
  EXPECT_NEAR(p.rate_at(trough), 0.2e6, 1e3);
  EXPECT_NEAR(p.rate_at(0), 1e6, 1e3);
}

// --- the bounded-window source -----------------------------------------

OpenLoopConfig source_cfg(double rate_rps, double duration_us) {
  OpenLoopConfig cfg;
  cfg.arrivals.kind = ArrivalKind::kPoisson;
  cfg.arrivals.rate_rps = rate_rps;
  cfg.arrivals.seed = 7;
  cfg.stop_at = sim::from_us(duration_us);
  return cfg;
}

TEST(OpenLoopSourceTest, CompletesEverythingUnderCapacity) {
  sim::Engine engine;
  OpenLoopSource src(engine, source_cfg(1e6, 500.0),
                     [&engine](sim::Time, std::uint64_t,
                               OpenLoopSource::CompletionFn done) {
                       engine.schedule_in(sim::from_ns(100.0), [done, &engine] {
                         done(engine.now(), RequestOutcome::kCompleted);
                       });
                     });
  src.start();
  engine.run();
  const OpenLoopCounters& c = src.counters();
  EXPECT_GT(c.offered, 400u);
  EXPECT_EQ(c.completed, c.offered);
  EXPECT_EQ(c.shed, 0u);
  EXPECT_EQ(c.in_flight, 0u);
  EXPECT_EQ(c.queued, 0u);
  EXPECT_TRUE(c.balanced());
}

TEST(OpenLoopSourceTest, ShedsWhenWindowAndQueueFull) {
  sim::Engine engine;
  OpenLoopConfig cfg = source_cfg(1e6, 500.0);
  cfg.max_in_flight = 2;
  cfg.queue_depth = 3;
  // A sink that never answers and no timeout: the window fills, then the
  // queue, then every further arrival is shed on the spot.
  OpenLoopSource src(engine, cfg,
                     [](sim::Time, std::uint64_t,
                        OpenLoopSource::CompletionFn) {});
  src.start();
  engine.run();
  const OpenLoopCounters& c = src.counters();
  EXPECT_EQ(c.in_flight, 2u);
  EXPECT_EQ(c.queued, 3u);
  EXPECT_EQ(c.shed, c.offered - 5);
  EXPECT_EQ(c.completed, 0u);
  EXPECT_TRUE(c.balanced());
}

TEST(OpenLoopSourceTest, TimeoutMarksFailedAndDrainsQueue) {
  sim::Engine engine;
  OpenLoopConfig cfg = source_cfg(1e6, 200.0);
  cfg.max_in_flight = 4;
  cfg.queue_depth = 64;
  cfg.request_timeout = sim::from_us(10.0);
  OpenLoopSource src(engine, cfg,
                     [](sim::Time, std::uint64_t,
                        OpenLoopSource::CompletionFn) {});
  src.start();
  engine.run();
  const OpenLoopCounters& c = src.counters();
  EXPECT_GT(c.failed, 0u);
  EXPECT_EQ(c.completed, 0u);
  EXPECT_EQ(c.in_flight, 0u) << "every dispatched request must time out";
  EXPECT_EQ(c.queued, 0u) << "timeouts must drain the waiting room";
  EXPECT_EQ(c.failed + c.shed, c.offered);
  EXPECT_TRUE(c.balanced());
}

TEST(OpenLoopSourceTest, DownstreamRejectionCounted) {
  sim::Engine engine;
  OpenLoopSource src(engine, source_cfg(1e6, 200.0),
                     [](sim::Time now, std::uint64_t,
                        OpenLoopSource::CompletionFn done) {
                       done(now, RequestOutcome::kRejected);
                     });
  src.start();
  engine.run();
  const OpenLoopCounters& c = src.counters();
  EXPECT_GT(c.offered, 0u);
  EXPECT_EQ(c.rejected, c.offered);
  EXPECT_TRUE(c.balanced());
}

TEST(OpenLoopSourceTest, LateResponseAfterTimeoutIsDropped) {
  sim::Engine engine;
  OpenLoopConfig cfg = source_cfg(1e6, 50.0);
  cfg.request_timeout = sim::from_us(5.0);
  // Every response arrives well after the timeout already fired: the
  // request must count as failed exactly once, never also as completed.
  OpenLoopSource src(engine, cfg,
                     [&engine](sim::Time, std::uint64_t,
                               OpenLoopSource::CompletionFn done) {
                       engine.schedule_in(sim::from_us(20.0), [done, &engine] {
                         done(engine.now(), RequestOutcome::kCompleted);
                       });
                     });
  src.start();
  engine.run();
  const OpenLoopCounters& c = src.counters();
  EXPECT_GT(c.offered, 0u);
  EXPECT_EQ(c.completed, 0u);
  EXPECT_EQ(c.failed + c.shed, c.offered);
  EXPECT_TRUE(c.balanced());
}

TEST(OpenLoopSourceTest, ObserverFiresOncePerOfferedRequest) {
  sim::Engine engine;
  OpenLoopConfig cfg = source_cfg(1e6, 300.0);
  cfg.max_in_flight = 2;
  cfg.queue_depth = 2;
  OpenLoopSource src(engine, cfg,
                     [&engine](sim::Time, std::uint64_t,
                               OpenLoopSource::CompletionFn done) {
                       engine.schedule_in(sim::from_us(3.0), [done, &engine] {
                         done(engine.now(), RequestOutcome::kCompleted);
                       });
                     });
  std::uint64_t fires = 0;
  std::uint64_t shed_fires = 0;
  src.set_observer([&](sim::Time arrival, sim::Time terminal,
                       RequestOutcome outcome, std::uint64_t req_id) {
    ++fires;
    EXPECT_GE(terminal, arrival);
    if (outcome == RequestOutcome::kShed) {
      ++shed_fires;
      EXPECT_EQ(terminal, arrival) << "shed happens on the spot";
      EXPECT_EQ(req_id, OpenLoopSource::kNoRequestId);
    } else {
      EXPECT_NE(req_id, OpenLoopSource::kNoRequestId)
          << "dispatched requests carry their dispatch id";
    }
  });
  src.start();
  engine.run();
  const OpenLoopCounters& c = src.counters();
  EXPECT_EQ(fires, c.offered) << "observer must see every terminal request";
  EXPECT_EQ(shed_fires, c.shed);
  EXPECT_TRUE(c.balanced());
}

// --- the pending-request ring ----------------------------------------------

// A sink that keeps every completion handle, answering nothing by itself.
struct HeldSink {
  std::vector<OpenLoopSource::CompletionFn> held;
  OpenLoopSource::DispatchFn fn() {
    return [this](sim::Time, std::uint64_t req_id,
                  OpenLoopSource::CompletionFn done) {
      EXPECT_EQ(req_id, held.size()) << "ids are dense and increasing";
      held.push_back(done);
    };
  }
};

TEST(OpenLoopSourceTest, OutOfOrderFinishesEachCountOnce) {
  sim::Engine engine;
  OpenLoopConfig cfg = source_cfg(1e6, 40.0);
  cfg.max_in_flight = 1000;
  cfg.queue_depth = 0;
  HeldSink sink;
  OpenLoopSource src(engine, cfg, sink.fn());
  std::map<std::uint64_t, int> seen;
  src.set_observer([&](sim::Time, sim::Time, RequestOutcome outcome,
                       std::uint64_t req_id) {
    EXPECT_EQ(outcome, RequestOutcome::kCompleted);
    ++seen[req_id];
  });
  src.start();
  engine.run();
  const std::size_t n = sink.held.size();
  ASSERT_GT(n, 20u);
  // Finish odd ids newest first, then even ids oldest first.
  sim::Time t = engine.now();
  for (std::size_t i = n; i-- > 0;) {
    if (i % 2 == 1) sink.held[i](++t, RequestOutcome::kCompleted);
  }
  EXPECT_EQ(src.counters().in_flight, (n + 1) / 2);
  for (std::size_t i = 0; i < n; i += 2) {
    sink.held[i](++t, RequestOutcome::kCompleted);
  }
  // Answering again is a no-op.
  for (auto& done : sink.held) done(++t, RequestOutcome::kCompleted);
  const OpenLoopCounters& c = src.counters();
  EXPECT_EQ(c.completed, n);
  EXPECT_EQ(c.in_flight, 0u);
  EXPECT_TRUE(c.balanced());
  ASSERT_EQ(seen.size(), n);
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "id " << id;
}

TEST(OpenLoopSourceTest, LateResponseIsNoOpEvenWhenItsSlotIsReused) {
  sim::Engine engine;
  OpenLoopConfig cfg = source_cfg(1e6, 400.0);
  cfg.max_in_flight = 1000;
  cfg.queue_depth = 0;
  cfg.request_timeout = sim::from_us(5.0);
  HeldSink sink;
  OpenLoopSource src(engine, cfg, sink.fn());
  src.start();
  // Run until request 64 has just been dispatched: request 0 timed out
  // long ago, and with at most a handful of requests in flight the ring
  // kept its 64 initial slots, so id 64 now lives in id 0's slot.
  while (sink.held.size() < 65) ASSERT_TRUE(engine.step());
  const OpenLoopCounters before = src.counters();
  EXPECT_GT(before.failed, 0u);
  EXPECT_GT(before.in_flight, 0u);
  sink.held[0](engine.now(), RequestOutcome::kCompleted);  // late response
  const OpenLoopCounters& after = src.counters();
  EXPECT_EQ(after.completed, before.completed);
  EXPECT_EQ(after.failed, before.failed);
  EXPECT_EQ(after.in_flight, before.in_flight)
      << "a late response must not finish the request sharing its slot";
  engine.run();
  EXPECT_EQ(src.counters().in_flight, 0u);
  EXPECT_EQ(src.counters().failed, sink.held.size());
  EXPECT_TRUE(src.counters().balanced());
}

TEST(OpenLoopSourceTest, RingGrowsPastItsInitialSize) {
  sim::Engine engine;
  OpenLoopConfig cfg = source_cfg(1e6, 600.0);
  cfg.max_in_flight = 100000;
  cfg.queue_depth = 0;
  HeldSink sink;
  OpenLoopSource src(engine, cfg, sink.fn());
  src.start();
  engine.run();
  const std::size_t n = sink.held.size();
  ASSERT_GT(n, 300u) << "the span must outgrow the initial ring";
  // Request 0 stays unanswered while every other one finishes, so the
  // ring spans all n ids at once; then the oldest finishes last.
  sim::Time t = engine.now();
  for (std::size_t i = 1; i < n; ++i) {
    sink.held[i](++t, i % 3 == 0 ? RequestOutcome::kRejected
                                 : RequestOutcome::kCompleted);
    ASSERT_EQ(src.counters().in_flight, n - i);
  }
  sink.held[0](++t, RequestOutcome::kCompleted);
  const OpenLoopCounters& c = src.counters();
  EXPECT_EQ(c.in_flight, 0u);
  EXPECT_EQ(c.rejected, (n - 1) / 3);
  EXPECT_EQ(c.completed + c.rejected, n);
  EXPECT_TRUE(c.balanced());
}

}  // namespace
}  // namespace tfsim::workloads
