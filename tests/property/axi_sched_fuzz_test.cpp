// Property-based differential fuzz for the activity-driven scheduler
// (DESIGN.md section 10).
//
// Each seed deterministically generates a random egress pipeline -- a
// router fanning out to 1..3 routes, each an optional FIFO feeding a
// RateGate with a random PERIOD, merged by the round-robin mux into a
// randomly-stalling sink -- plus random stimulus and an optional mid-run
// set_period() mutation.  The same plan is driven under SettleMode::kNaive
// and SettleMode::kActivity and every per-cycle wire sample must be
// byte-identical.  Any divergence prints the offending seed and the full
// plan so the case can be replayed as a unit test.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "axi/checker.hpp"
#include "axi/endpoints.hpp"
#include "axi/fifo.hpp"
#include "axi/monitor.hpp"
#include "axi/mux.hpp"
#include "axi/rate_gate.hpp"
#include "axi/router.hpp"
#include "axi/testbench.hpp"
#include "axi/trace.hpp"
#include "sim/rng.hpp"

namespace tfsim::axi {
namespace {

/// "<prefix><i>", appended piecewise: gcc 12 at -O3 flags
/// `"h" + std::to_string(i)` with a false -Wrestrict.
std::string indexed(const char* prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

struct RoutePlan {
  bool has_fifo = false;
  std::size_t fifo_depth = 1;
  std::uint64_t period = 1;
};

struct Plan {
  std::uint64_t seed = 0;
  std::vector<RoutePlan> routes;
  bool saturate = false;
  double valid_p = 1.0;
  double ready_p = 1.0;
  std::vector<Beat> stimulus;  ///< empty when saturating
  std::uint64_t cycles1 = 0;
  std::uint64_t cycles2 = 0;
  bool mutate = false;  ///< set_period() between the two run chunks
  std::size_t mutate_route = 0;
  std::uint64_t new_period = 1;
};

Plan make_plan(std::uint64_t seed) {
  tfsim::sim::Rng rng(seed);
  Plan p;
  p.seed = seed;
  // Periods mix back-to-back (1), small windows, and long quiescent gaps.
  static constexpr std::uint64_t kPeriods[] = {1, 2, 3, 7, 50, 400};
  const std::size_t n_routes = 1 + rng.uniform_u64(3);
  for (std::size_t i = 0; i < n_routes; ++i) {
    RoutePlan r;
    r.has_fifo = rng.uniform() < 0.5;
    r.fifo_depth = 1 + rng.uniform_u64(4);
    r.period = kPeriods[rng.uniform_u64(6)];
    p.routes.push_back(r);
  }
  p.saturate = rng.uniform() < 0.25;
  static constexpr double kValidP[] = {1.0, 0.8, 0.5};
  static constexpr double kReadyP[] = {1.0, 0.6, 0.3};
  p.valid_p = kValidP[rng.uniform_u64(3)];
  p.ready_p = kReadyP[rng.uniform_u64(3)];
  if (!p.saturate) {
    const std::uint64_t beats = 20 + rng.uniform_u64(100);
    for (std::uint64_t i = 0; i < beats; ++i) {
      p.stimulus.push_back(Beat{
          i, static_cast<std::uint32_t>(rng.uniform_u64(n_routes)),
          static_cast<std::uint32_t>(rng.uniform_u64(16)), true});
    }
  }
  p.cycles1 = 150 + rng.uniform_u64(450);
  p.cycles2 = 150 + rng.uniform_u64(450);
  p.mutate = rng.uniform() < 0.5;
  p.mutate_route = rng.uniform_u64(n_routes);
  p.new_period = kPeriods[rng.uniform_u64(6)];
  return p;
}

std::string describe(const Plan& p) {
  std::ostringstream os;
  os << "seed=" << p.seed << " routes=[";
  for (std::size_t i = 0; i < p.routes.size(); ++i) {
    if (i) os << ", ";
    if (p.routes[i].has_fifo) os << "fifo(" << p.routes[i].fifo_depth << ")+";
    os << "gate(" << p.routes[i].period << ")";
  }
  os << "] saturate=" << p.saturate << " valid_p=" << p.valid_p
     << " ready_p=" << p.ready_p << " beats=" << p.stimulus.size()
     << " cycles=" << p.cycles1 << "+" << p.cycles2;
  if (p.mutate) {
    os << " mutate(route " << p.mutate_route << " -> period " << p.new_period
       << ")";
  }
  return os.str();
}

struct Bench {
  std::unique_ptr<Testbench> tb;
  std::vector<RateGate*> gates;
  Sink* sink = nullptr;
  FlowChecker* flow = nullptr;
  CycleTraceRecorder* trace = nullptr;
};

Bench build(const Plan& p, SettleMode mode) {
  Bench b;
  b.tb = std::make_unique<Testbench>(CheckMode::kStrict, mode);
  Testbench& tb = *b.tb;

  Wire& src_w = tb.wire("src");
  std::vector<const Wire*> traced{&src_w};

  Source::Config scfg;
  scfg.saturate = p.saturate;
  scfg.valid_probability = p.valid_p;
  scfg.seed = p.seed * 2 + 1;
  Source& src = tb.add<Source>("source", src_w, scfg);
  for (const Beat& beat : p.stimulus) src.push(beat);

  std::vector<Wire*> route_in;
  for (std::size_t i = 0; i < p.routes.size(); ++i) {
    route_in.push_back(&tb.wire(indexed("r", i)));
    traced.push_back(route_in.back());
  }
  tb.add<Router>("router", src_w, route_in);

  std::uint64_t allowed_in_flight = 0;
  std::vector<Wire*> mux_in;
  for (std::size_t i = 0; i < p.routes.size(); ++i) {
    Wire* cur = route_in[i];
    if (p.routes[i].has_fifo) {
      Wire& f = tb.wire(indexed("f", i));
      tb.add<Fifo>(indexed("fifo", i), *cur, f,
                   p.routes[i].fifo_depth);
      allowed_in_flight += p.routes[i].fifo_depth;
      traced.push_back(&f);
      cur = &f;
    }
    Wire& g = tb.wire(indexed("g", i));
    b.gates.push_back(&tb.add<RateGate>(indexed("gate", i), *cur, g,
                                        p.routes[i].period));
    traced.push_back(&g);
    mux_in.push_back(&g);
  }

  Wire& out = tb.wire("out");
  traced.push_back(&out);
  tb.add<RoundRobinMux>("mux", mux_in, out);
  Sink::Config kcfg;
  kcfg.ready_probability = p.ready_p;
  kcfg.seed = p.seed * 3 + 7;
  b.sink = &tb.add<Sink>("sink", out, kcfg);
  // Routes with different PERIODs legally reorder beats across TDESTs, so
  // no id-order check at the merge point; per-TDEST order is still enforced
  // by the FlowChecker.
  tb.add<Monitor>("mon", out, /*check_id_order=*/false);
  b.flow = &tb.watch_flow("fuzz-region", {&src_w}, {&out}, allowed_in_flight);
  b.trace = &tb.add<CycleTraceRecorder>("trace", traced);
  return b;
}

void drive(Bench& b, const Plan& p) {
  b.tb->run(p.cycles1);
  if (p.mutate) b.gates[p.mutate_route]->set_period(p.new_period);
  b.tb->run(p.cycles2);
  b.tb->finish_checks();
}

void run_differential(std::uint64_t seed) {
  const Plan plan = make_plan(seed);
  SCOPED_TRACE(describe(plan));

  Bench naive = build(plan, SettleMode::kNaive);
  drive(naive, plan);
  Bench act = build(plan, SettleMode::kActivity);
  drive(act, plan);

  const std::string divergence =
      CycleTraceRecorder::diff(*naive.trace, *act.trace);
  ASSERT_EQ(divergence, "")
      << "replay with make_plan(" << seed << "): " << divergence;

  EXPECT_EQ(naive.tb->cycle(), act.tb->cycle());
  EXPECT_EQ(naive.tb->skipped_cycles(), 0u);
  EXPECT_EQ(naive.flow->entered(), act.flow->entered());
  EXPECT_EQ(naive.flow->exited(), act.flow->exited());
  const auto& a = naive.sink->arrivals();
  const auto& c = act.sink->arrivals();
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].cycle, c[i].cycle) << "arrival " << i;
    ASSERT_EQ(a[i].beat, c[i].beat) << "arrival " << i;
  }
}

class SchedFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedFuzzTest, NaiveAndActivityTracesIdentical) {
  run_differential(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(SchedFuzzTest, ActivitySchedulerActuallySkipsSomewhere) {
  // Guard against the fuzz passing vacuously: across the seed corpus at
  // least some plans must engage the fast-forward path.
  std::uint64_t total_skipped = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Plan plan = make_plan(seed);
    Bench act = build(plan, SettleMode::kActivity);
    drive(act, plan);
    total_skipped += act.tb->skipped_cycles();
  }
  EXPECT_GT(total_skipped, 1000u);
}

}  // namespace
}  // namespace tfsim::axi
