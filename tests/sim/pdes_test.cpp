// ParallelEngine: conservative lookahead windows over per-domain slab
// calendars (sim/pdes.hpp).  The suite pins lookahead enforcement at the
// horizon boundary, the pdes.threads on/off switch, and cancel semantics
// across calendars (including the foreign-handle bugfix), that an aborted
// run leaves no buffered cross-domain post behind, and that the flush
// sequences same-time arrivals by source id.  The golden
// digest table pins a seeded multi-domain ring's digest and window count.
#include "sim/pdes.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "golden_runs.hpp"
#include "sim/domain.hpp"
#include "sim/engine.hpp"

namespace tfsim::sim {
namespace {

PdesConfig config(unsigned threads, Time lookahead) {
  PdesConfig cfg;
  cfg.threads = threads;
  cfg.lookahead = lookahead;
  return cfg;
}

TEST(PdesTest, SerialWindowedRunMatchesPlainEngineSemantics) {
  ParallelEngine pdes(1, config(1, 100));
  std::vector<Time> fired;
  for (Time t : {Time{50}, Time{10}, Time{10}, Time{320}}) {
    pdes.post(0, 0, t, [&fired, &pdes] { fired.push_back(pdes.domain(0).now()); });
  }
  pdes.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 10, 50, 320}));
  EXPECT_EQ(pdes.executed(), 4u);
  EXPECT_EQ(pdes.pending(), 0u);
  EXPECT_GE(pdes.windows(), 2u) << "320 is beyond the first 100-wide window";
}

TEST(PdesTest, ZeroDelaySelfSendsAreLegal) {
  ParallelEngine pdes(2, config(1, 10));
  int count = 0;
  // A callback scheduling into its own domain at its own `now` must run in
  // the same window -- self-sends never synchronize.
  pdes.post(0, 0, 5, [&pdes, &count] {
    ++count;
    pdes.post(0, 0, pdes.domain(0).now(), [&count] { ++count; });
  });
  pdes.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(pdes.domain(0).now(), 5u);
}

TEST(PdesTest, CrossDomainPostBelowHorizonThrows) {
  ParallelEngine pdes(2, config(1, 100));
  bool threw = false;
  pdes.post(0, 0, 50, [&pdes, &threw] {
    // Window is [50, 150): a cross-domain send at 149 violates lookahead...
    try {
      pdes.post(0, 1, pdes.horizon() - 1, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
    // ...while exactly at the horizon is the tightest legal send.
    pdes.post(0, 1, pdes.horizon(), [] {});
  });
  pdes.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(pdes.executed(), 2u) << "the horizon-boundary send must arrive";
}

TEST(PdesTest, SetupTimePostsBypassTheHorizon) {
  ParallelEngine pdes(2, config(1, 1000));
  int ran = 0;
  pdes.post(0, 1, 3, [&ran] { ++ran; });  // below any horizon: legal at setup
  EXPECT_EQ(pdes.pending(), 1u);
  pdes.run();
  EXPECT_EQ(ran, 1);
}

TEST(PdesTest, RunRequiresLookahead) {
  ParallelEngine pdes(2, config(1, 0));
  pdes.post(0, 0, 1, [] {});
  EXPECT_THROW(pdes.run(), std::logic_error);
}

TEST(PdesTest, DeterministicAcrossThreadCounts) {
  // A seeded 16-domain ring.  Its golden row was captured when 1, 2 and 8
  // workers all produced it byte for byte; the serial windows must keep
  // reproducing that result, run after run.
  const std::string name =
      "calendar_ring/domains=16/lookahead=300/seed=12648430/chain=40";
  const golden::Run first = golden::calendar_ring(16, 300, 0xC0FFEE, 40);
  const golden::Run again = golden::calendar_ring(16, 300, 0xC0FFEE, 40);
  EXPECT_EQ(first.serialized, again.serialized);
  EXPECT_EQ(golden::format_row(name, golden::row_of(first)),
            golden::table_line(name));
}

TEST(PdesTest, ThreadsAboveOneAreRejected) {
  // pdes.threads is an on/off switch: 0 and 1 both run windows serially.
  for (const unsigned threads : {0u, 1u}) {
    ParallelEngine pdes(2, config(threads, 100));
    EXPECT_EQ(pdes.threads(), threads);
  }
  try {
    ParallelEngine pdes(2, config(8, 100));
    FAIL() << "threads = 8 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pdes.threads"), std::string::npos)
        << e.what();
  }
}

TEST(PdesTest, CancelAcrossBarrierWindows) {
  ParallelEngine pdes(2, config(1, 50));
  int fired = 0;
  // Victim sits several windows out in domain 0's own future.
  Engine::EventId victim =
      pdes.domain(0).schedule_at(400, [&fired] { ++fired; });
  // A domain-0 event in an earlier window cancels it: same-calendar cancel
  // across a barrier is legal and must survive the window protocol.
  pdes.post(0, 0, 10, [&pdes, &victim] { pdes.domain(0).cancel(victim); });
  // Keep domain 1 busy across the same windows so barriers actually turn.
  pdes.post(1, 1, 30, [&pdes, &fired] {
    ++fired;
    pdes.post(1, 1, 390, [&fired] { ++fired; });
  });
  pdes.run();
  EXPECT_EQ(fired, 2) << "only domain 1's two events may fire";
  EXPECT_FALSE(victim.valid());
  EXPECT_EQ(pdes.domain(0).executed(), 1u);
}

TEST(PdesTest, ForeignCancelReportedUnderStrictChecker) {
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kStrict);
  const DomainId d0 = checker.add_domain("node0");
  const DomainId d1 = checker.add_domain("node1");
  ParallelEngine pdes(2, config(1, 100));
  pdes.domain(0).bind_domain_checker(&checker, d0);
  pdes.domain(1).bind_domain_checker(&checker, d1);

  Engine::EventId ev = pdes.domain(0).schedule_at(10, [] {});
  EXPECT_THROW(pdes.domain(1).cancel(ev), DomainError)
      << "a handle minted by domain 0 presented to domain 1's calendar";
  EXPECT_EQ(checker.total(), 1u);

  // collect mode records without throwing; the foreign event stays live.
  checker.set_mode(DomainCheckMode::kCollect);
  Engine::EventId ev2 = pdes.domain(0).schedule_at(20, [] {});
  pdes.domain(1).cancel(ev2);
  EXPECT_EQ(checker.total(), 2u);
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().back().owner, d0);
  EXPECT_EQ(checker.violations().back().active, d1);
  EXPECT_EQ(pdes.domain(0).pending(), 2u)
      << "foreign cancels never touch the owning calendar";

  // off mode: the historical silent no-op.
  checker.set_mode(DomainCheckMode::kOff);
  Engine::EventId ev3 = pdes.domain(0).schedule_at(30, [] {});
  pdes.domain(1).cancel(ev3);
  EXPECT_EQ(checker.total(), 2u);
}

TEST(PdesTest, WorkerExceptionPropagatesLowestDomainFirst) {
  ParallelEngine pdes(4, config(1, 100));
  for (DomainId d = 0; d < 4; ++d) {
    pdes.post(d, d, 10, [d] {
      throw std::runtime_error("boom " + std::to_string(d));
    });
  }
  try {
    pdes.run();
    FAIL() << "expected the domain exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 0") << "lowest domain id wins";
  }
  EXPECT_FALSE(pdes.running());
}

TEST(PdesTest, AbortedRunLeavesNoStaleOutboxEntries) {
  // Domain 0 posts to domain 1, then domain 1 throws in the same window:
  // the buffered post must die with the aborted run, not land in a later
  // run's flush (where t=10 would be in domain 1's past).
  ParallelEngine pdes(2, config(1, 10));
  int stale = 0;
  pdes.post(0, 0, 0, [&] { pdes.post(0, 1, 10, [&] { ++stale; }); });
  pdes.post(1, 1, 5, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pdes.run(), std::runtime_error);
  EXPECT_EQ(pdes.pending(), 0u);

  std::vector<Time> fired;
  pdes.post(1, 1, 100, [&] { fired.push_back(pdes.domain(1).now()); });
  EXPECT_NO_THROW(pdes.run());
  EXPECT_EQ(fired, (std::vector<Time>{100}));
  EXPECT_EQ(stale, 0) << "a post from the aborted window was delivered";
}

TEST(PdesTest, PostFromForeignSourceFlushesInSourceOrder) {
  // Domain 1 posts first, then domain 2 posts naming domain 0 as its
  // source, both to domain 2 at t=10.  Same-time arrivals are sequenced
  // by source id, as a scan over every outbox would: domain 0's first.
  ParallelEngine pdes(3, config(1, 10));
  std::vector<int> order;
  pdes.post(1, 1, 0, [&] { pdes.post(1, 2, 10, [&] { order.push_back(1); }); });
  pdes.post(2, 2, 0, [&] { pdes.post(0, 2, 10, [&] { order.push_back(0); }); });
  pdes.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace tfsim::sim
