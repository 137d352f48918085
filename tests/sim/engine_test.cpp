#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tfsim::sim {
namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(EngineTest, EqualTimesRunInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EngineTest, ScheduleInIsRelative) {
  Engine e;
  Time seen = 0;
  e.schedule_at(100, [&] {
    e.schedule_in(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150u);
}

TEST(EngineTest, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(50, [] {}), std::logic_error);
}

TEST(EngineTest, ScheduleInOverflowThrowsNamingTheOverflow) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run();
  // now + dt would wrap past kTimeNever (e.g. a zero-bandwidth
  // serialization delay); the error must say so, not "in the past".
  try {
    e.schedule_in(kTimeNever - 50, [] {});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& err) {
    EXPECT_NE(std::string(err.what()).find("overflow"), std::string::npos)
        << err.what();
  }
  EXPECT_EQ(e.pending(), 0u);
  // The largest representable delay still schedules.
  e.schedule_in(kTimeNever - 100, [] {});
  EXPECT_EQ(e.pending(), 1u);
}

TEST(EngineTest, RunBeforeReturnsNextLiveTime) {
  Engine e;
  EXPECT_EQ(e.run_before(10), kTimeNever);
  Engine::EventId stale = e.schedule_at(20, [] {});
  e.schedule_at(5, [] {});
  e.schedule_at(30, [] {});
  e.cancel(stale);
  EXPECT_EQ(e.run_before(10), 30u) << "cancelled head is skipped";
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.run_before(31), kTimeNever);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  auto id = e.schedule_at(10, [&] { ran = true; });
  EXPECT_EQ(e.pending(), 1u);
  e.cancel(id);
  EXPECT_EQ(e.pending(), 0u);
  e.run();
  EXPECT_FALSE(ran);
}

TEST(EngineTest, CancelAfterFireIsNoop) {
  Engine e;
  auto id = e.schedule_at(10, [] {});
  e.run();
  e.cancel(id);  // must not crash or corrupt counters
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineTest, CancelledEventDoesNotBlockRunUntil) {
  Engine e;
  bool ran = false;
  auto early = e.schedule_at(10, [&] { ran = true; });
  e.schedule_at(100, [] {});
  e.cancel(early);
  e.run_until(50);
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.now(), 50u);
  EXPECT_EQ(e.pending(), 1u);  // the t=100 event still waits
}

TEST(EngineTest, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.run_until(1234);
  EXPECT_EQ(e.now(), 1234u);
}

TEST(EngineTest, RunUntilExecutesBoundaryEvent) {
  Engine e;
  bool at_boundary = false, after = false;
  e.schedule_at(100, [&] { at_boundary = true; });
  e.schedule_at(101, [&] { after = true; });
  e.run_until(100);
  EXPECT_TRUE(at_boundary);
  EXPECT_FALSE(after);
}

TEST(EngineTest, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(1, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(EngineTest, RunWhilePendingStops) {
  Engine e;
  int count = 0;
  for (int i = 1; i <= 100; ++i) {
    e.schedule_at(static_cast<Time>(i), [&] { ++count; });
  }
  const bool stopped = e.run_while_pending([&] { return count >= 10; });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(count, 10);
}

TEST(EngineTest, EventsScheduledDuringRunExecute) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) e.schedule_in(10, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 40u);
  EXPECT_EQ(e.executed(), 5u);
}

// --- event-pool handle semantics (slab + generation counters) --------------

TEST(EngineTest, ValidTracksEventLifecycle) {
  Engine e;
  Engine::EventId none;
  EXPECT_FALSE(none.valid());
  auto id = e.schedule_at(5, [] {});
  EXPECT_TRUE(id.valid());
  e.run();
  EXPECT_FALSE(id.valid()) << "fired event invalidates the handle";
  auto id2 = e.schedule_at(10, [] {});
  EXPECT_FALSE(id.valid()) << "slot reuse must not resurrect the old handle";
  EXPECT_TRUE(id2.valid());
  e.cancel(id2);
  EXPECT_FALSE(id2.valid());
}

TEST(EngineTest, DoubleCancelIsNoop) {
  Engine e;
  bool ran = false;
  auto id = e.schedule_at(10, [&] { ran = true; });
  auto copy = id;  // handles are copyable; both reference the same event
  e.cancel(id);
  EXPECT_EQ(e.pending(), 0u);
  e.cancel(id);    // reset handle: no-op
  e.cancel(copy);  // stale generation: no-op, must not corrupt counters
  EXPECT_EQ(e.pending(), 0u);
  e.run();
  EXPECT_FALSE(ran);
}

TEST(EngineTest, CancelStaleHandleAfterSlotReuse) {
  Engine e;
  bool first = false, second = false;
  auto id = e.schedule_at(10, [&] { first = true; });
  e.run();  // fires; the slot returns to the free list
  auto id2 = e.schedule_at(20, [&] { second = true; });  // reuses the slot
  e.cancel(id);  // stale generation: must NOT cancel the new event
  EXPECT_TRUE(id2.valid());
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
}

TEST(EngineTest, CancelSiblingFromCallbackAtSameTime) {
  Engine e;
  bool sibling_ran = false;
  Engine::EventId sib;
  e.schedule_at(10, [&] { e.cancel(sib); });
  sib = e.schedule_at(10, [&] { sibling_ran = true; });
  e.run();
  EXPECT_FALSE(sibling_ran);
  EXPECT_EQ(e.pending(), 0u);
}

// Deterministic stress over many slab generations: cancel before fire,
// double-cancel, and cancel-after-fire on handles whose slots have been
// recycled many times.
TEST(EngineTest, CancellationStressAcrossGenerations) {
  Engine e;
  int fired = 0;
  constexpr int kRounds = 50;
  constexpr int kPerRound = 100;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Engine::EventId> ids;
    ids.reserve(kPerRound);
    for (int i = 0; i < kPerRound; ++i) {
      ids.push_back(e.schedule_in(static_cast<Time>((i * 7) % 23),
                                  [&] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) e.cancel(ids[i]);
    for (std::size_t i = 0; i < ids.size(); i += 6) e.cancel(ids[i]);  // double
    e.run();
    for (auto& id : ids) e.cancel(id);  // all stale now: post-fire cancels
    EXPECT_EQ(e.pending(), 0u);
  }
  // Per round: 100 scheduled, 34 cancelled (i = 0, 3, ..., 99), 66 fire.
  EXPECT_EQ(fired, kRounds * 66);
  EXPECT_EQ(e.executed(), static_cast<std::uint64_t>(kRounds * 66));
}

// --- differential check against a naive reference calendar -----------------

// The calendar's contract, spelled out as simply as possible: a sorted
// (time, seq) map, a clock, and counters.  Labels name events; an event
// whose label is below kChildBase and divisible by 4 schedules one child
// (label + kChildBase) at now + label % 3 when it fires, so both calendars
// also schedule from inside callbacks.
constexpr int kChildBase = 1'000'000;

struct ReferenceCalendar {
  std::map<std::pair<Time, std::uint64_t>, int> cal;
  std::map<int, std::pair<Time, std::uint64_t>> where;  // pending labels
  std::vector<int> fired;
  Time now = 0;
  std::uint64_t seq = 0;
  std::uint64_t executed = 0;

  void schedule_at(Time t, int label) {
    cal[{t, seq}] = label;
    where[label] = {t, seq};
    ++seq;
  }
  void cancel(int label) {
    const auto it = where.find(label);
    if (it == where.end()) return;
    cal.erase(it->second);
    where.erase(it);
  }
  void fire_first() {
    const auto it = cal.begin();
    const int label = it->second;
    now = it->first.first;
    where.erase(label);
    cal.erase(it);
    ++executed;
    fired.push_back(label);
    if (label < kChildBase && label % 4 == 0) {
      schedule_at(now + static_cast<Time>(label % 3), label + kChildBase);
    }
  }
  bool step() {
    if (cal.empty()) return false;
    fire_first();
    return true;
  }
  void run_until(Time t) {
    while (!cal.empty() && cal.begin()->first.first <= t) fire_first();
    if (t > now) now = t;
  }
  Time run_before(Time t) {
    while (!cal.empty() && cal.begin()->first.first < t) fire_first();
    return cal.empty() ? kTimeNever : cal.begin()->first.first;
  }
};

struct EngineUnderTest {
  Engine e;
  std::map<int, Engine::EventId> ids;     // reset by cancel()
  std::map<int, Engine::EventId> copies;  // never reset: stale handles
  std::vector<int> fired;

  void schedule(Time t, int label, bool relative) {
    auto cb = [this, label] {
      fired.push_back(label);
      if (label < kChildBase && label % 4 == 0) {
        add(e.now() + static_cast<Time>(label % 3), label + kChildBase);
      }
    };
    const Engine::EventId id =
        relative ? e.schedule_in(t, std::move(cb)) : e.schedule_at(t, cb);
    ids[label] = id;
    copies[label] = id;
  }
  void add(Time t, int label) { schedule(t, label, false); }
};

TEST(EngineDifferentialTest, MatchesReferenceCalendarUnderRandomOps) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 4242ULL}) {
    std::mt19937_64 rng(seed);
    const auto draw = [&rng](std::uint64_t n) { return rng() % n; };
    EngineUnderTest sut;
    ReferenceCalendar ref;
    int next_label = 0;
    for (int op = 0; op < 4000; ++op) {
      switch (draw(8)) {
        case 0:
        case 1: {  // schedule_at, times colliding within a narrow band
          const Time t = ref.now + draw(6);
          sut.add(t, next_label);
          ref.schedule_at(t, next_label++);
          break;
        }
        case 2: {  // schedule_in
          const Time dt = draw(6);
          sut.schedule(dt, next_label, true);
          ref.schedule_at(ref.now + dt, next_label++);
          break;
        }
        case 3: {  // cancel through a live, reset or stale handle
          if (next_label == 0) break;
          const int label = static_cast<int>(
              draw(static_cast<std::uint64_t>(next_label)));
          auto& handles = draw(2) == 0 ? sut.ids : sut.copies;
          sut.e.cancel(handles[label]);
          ref.cancel(label);
          break;
        }
        case 4:
          ASSERT_EQ(sut.e.step(), ref.step()) << "op " << op;
          break;
        case 5: {
          const Time t = ref.now + draw(8);
          ASSERT_EQ(sut.e.run_before(t), ref.run_before(t)) << "op " << op;
          break;
        }
        case 6: {
          const Time t = ref.now + draw(8);
          sut.e.run_until(t);
          ref.run_until(t);
          break;
        }
        default: {
          const auto next = sut.e.next_event_time();
          ASSERT_EQ(next.has_value(), !ref.cal.empty());
          if (next.has_value()) {
            ASSERT_EQ(*next, ref.cal.begin()->first.first);
          }
          break;
        }
      }
      ASSERT_EQ(sut.fired, ref.fired) << "seed " << seed << " op " << op;
      ASSERT_EQ(sut.e.now(), ref.now) << "seed " << seed << " op " << op;
      ASSERT_EQ(sut.e.pending(), ref.where.size()) << "op " << op;
      ASSERT_EQ(sut.e.executed(), ref.executed) << "op " << op;
      for (const auto& [label, id] : sut.copies) {
        ASSERT_EQ(id.valid(), ref.where.count(label) == 1)
            << "seed " << seed << " op " << op << " label " << label;
      }
    }
    sut.e.run();
    while (ref.step()) {
    }
    EXPECT_EQ(sut.fired, ref.fired) << "seed " << seed;
    EXPECT_GT(ref.executed, 1000u);
  }
}

// --- callback lifetime ----------------------------------------------------

// A capture that counts its constructions and destructions, and the
// destructions of its owning (not moved-from) instance per logical callback.
struct LifetimeLedger {
  std::int64_t alive = 0;
  std::map<int, int> owner_destroyed;
};

template <std::size_t Pad>
struct Counted {
  LifetimeLedger* ledger;
  int label;
  bool owner = true;
  unsigned char pad[Pad] = {};

  Counted(LifetimeLedger* l, int lab) : ledger(l), label(lab) {
    ++ledger->alive;
  }
  Counted(const Counted& o) : ledger(o.ledger), label(o.label) {
    ++ledger->alive;
  }
  Counted(Counted&& o) noexcept : ledger(o.ledger), label(o.label) {
    o.owner = false;
    ++ledger->alive;
  }
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    --ledger->alive;
    if (owner) ++ledger->owner_destroyed[label];
  }
};

template <std::size_t Pad, bool kInline>
void check_lifetimes() {
  LifetimeLedger ledger;
  int ran = 0;
  const auto make = [&](int label, bool throws) {
    return [c = Counted<Pad>(&ledger, label), &ran, throws] {
      ++ran;
      if (throws) throw std::runtime_error("callback failed");
    };
  };
  static_assert(Engine::Callback::stores_inline<decltype(make(0, false))> ==
                kInline);
  {
    Engine e;
    e.schedule_at(1, make(0, false));                  // fired
    Engine::EventId id = e.schedule_at(2, make(1, false));
    e.cancel(id);                                       // cancelled
    e.schedule_at(3, make(2, true));                    // throws in step
    e.schedule_at(10, make(3, false));                  // left pending
    EXPECT_TRUE(e.step());
    EXPECT_THROW(e.step(), std::runtime_error);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(e.pending(), 1u);
    EXPECT_EQ(ledger.owner_destroyed[0], 1) << "fired";
    EXPECT_EQ(ledger.owner_destroyed[1], 1) << "cancelled";
    EXPECT_EQ(ledger.owner_destroyed[2], 1) << "threw from step";
    EXPECT_EQ(ledger.owner_destroyed.count(3), 0u) << "still pending";
  }
  EXPECT_EQ(ledger.owner_destroyed[3], 1) << "pending at engine destruction";
  EXPECT_EQ(ledger.alive, 0) << "every instance made was destroyed";
  for (const auto& [label, n] : ledger.owner_destroyed) {
    EXPECT_EQ(n, 1) << "label " << label;
  }
}

TEST(EngineLifetimeTest, InlineCaptureDestroyedExactlyOnce) {
  check_lifetimes<8, true>();
}

TEST(EngineLifetimeTest, BoxedCaptureDestroyedExactlyOnce) {
  check_lifetimes<Engine::kCallbackBytes, false>();
}

// --- the callable type itself ----------------------------------------------

TEST(InlineFunctionTest, StoresSmallCapturesInlineAndMovesThem) {
  using Fn = InlineFunction<int(int), 16>;
  struct Small {
    int base;
    int operator()(int x) const { return base + x; }
  };
  struct Large {
    int v[8];
    int operator()(int x) const { return v[7] + x; }
  };
  static_assert(Fn::stores_inline<Small>);
  static_assert(!Fn::stores_inline<Large>);
  Fn a = Small{40};
  Fn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(b(2), 42);
  Fn c = Large{{0, 0, 0, 0, 0, 0, 0, 5}};
  b = std::move(c);
  EXPECT_EQ(b(1), 6);
  b = nullptr;
  EXPECT_FALSE(static_cast<bool>(b));
  // A move-only capture is fine: the type never copies.
  InlineFunction<int(), 16> owner = [p = std::make_unique<int>(7)] {
    return *p;
  };
  InlineFunction<int(), 16> moved = std::move(owner);
  EXPECT_EQ(moved(), 7);
}

}  // namespace
}  // namespace tfsim::sim
