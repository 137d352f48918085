// Chaos timeline end-to-end on the 8x4 leaf/spine rack: a compressed
// chaos_rack run must exercise every event kind, the detector path must
// migrate off the gray lender (and rejoin after it recovers) while the
// timeout-only baseline stays pinned on it.  The golden digest table pins
// this run's digest (chaos_half/seed=0).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/serving.hpp"
#include "golden_runs.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"

namespace tfsim::node {
namespace {

core::ServingReport run(const scenario::ScenarioSpec& spec) {
  Cluster cluster(spec);
  return core::run_serving(cluster);
}

TEST(ServingChaosTest, DetectorMigratesRestripesAndRejoins) {
  const core::ServingReport rep = run(golden::compressed_chaos());

  EXPECT_TRUE(rep.balanced);
  EXPECT_GT(rep.totals.completed, 0u);

  // The gray window bit (inflated completions happened), the detector saw
  // through it (migrations off the gray primary), the kill/brownout bit
  // the fabric (chaos drops at the switches, restripes around them), and
  // the recover event let sources win their primary back via probes.
  EXPECT_GT(rep.gray_inflated, 0u);
  EXPECT_GT(rep.failovers, 0u);
  EXPECT_GT(rep.restripes, 0u);
  EXPECT_GT(rep.rejoins, 0u);
  EXPECT_GT(rep.switch_chaos_drops, 0u);
}

TEST(ServingChaosTest, TimeoutOnlyBaselineStaysPinnedOnGrayLender) {
  auto on_spec = golden::compressed_chaos();
  auto off_spec = on_spec;
  off_spec.detector.enabled = false;

  const core::ServingReport on = run(on_spec);
  const core::ServingReport off = run(off_spec);

  ASSERT_TRUE(on.balanced);
  ASSERT_TRUE(off.balanced);

  // Restripes and rejoins are detector verbs: without it the baseline has
  // no reaction to a gray lender that never times out.
  EXPECT_EQ(off.restripes, 0u);
  EXPECT_EQ(off.rejoins, 0u);
  // So the baseline keeps sending into the inflation window and completes
  // strictly more gray-inflated requests than the detector run, which
  // migrated away early in the window.
  EXPECT_GT(off.gray_inflated, on.gray_inflated);
}

TEST(ServingChaosTest, SerialAndPdesRunsAreByteIdentical) {
  // The golden row was captured when the serial engine and 4 PDES workers
  // agreed on this run byte for byte; the per-node calendars, run serially,
  // must reproduce it.
  const golden::ServingRun run = golden::serve(golden::compressed_chaos());

  // The comparison only certifies what actually happened: a run where the
  // reactive path never fired would prove nothing about its determinism.
  ASSERT_GT(run.report.restripes, 0u);
  ASSERT_GT(run.report.failovers, 0u);
  EXPECT_EQ(golden::format_row("chaos_half/seed=0", golden::row_of(run)),
            golden::table_line("chaos_half/seed=0"));
}

TEST(ServingChaosTest, GrayLenderRequiresCappedLenderService) {
  auto spec = golden::compressed_chaos();
  // An uncapped lender (no service time) has nothing for gray inflation to
  // stretch: run_serving must reject the combination loudly instead of
  // silently simulating a no-op chaos event.
  spec.traffic.lender_capacity_rps = 0.0;
  Cluster cluster(spec);
  EXPECT_THROW(core::run_serving(cluster), std::invalid_argument);
}

}  // namespace
}  // namespace tfsim::node
