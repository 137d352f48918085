#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/resilience.hpp"
#include "core/session.hpp"
#include "scenario/scenario.hpp"

namespace tfsim::core {
namespace {

TEST(MetricsTest, DegradationFromTimes) {
  EXPECT_DOUBLE_EQ(degradation_from_times(200, 100), 2.0);
  EXPECT_DOUBLE_EQ(degradation_from_times(100, 100), 1.0);
  EXPECT_EQ(degradation_from_times(100, 0), 0.0);
}

TEST(MetricsTest, DegradationFromRates) {
  EXPECT_DOUBLE_EQ(degradation_from_rates(1000.0, 500.0), 2.0);
  EXPECT_EQ(degradation_from_rates(1000.0, 0.0), 0.0);
}

TEST(MetricsTest, BdpUnits) {
  // 10 GB/s x 1.65 us = 16.5 kB.
  EXPECT_NEAR(bdp_kb(10.0, 1.65), 16.5, 1e-9);
}

TEST(TableTest, FormatsAlignedOutput) {
  Table t("demo", {"col-a", "b"});
  t.row({"x", "1"});
  t.row({"longer-cell", "2"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("longer-cell"), std::string::npos);
  EXPECT_NE(s.find("col-a"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t("demo", {"a", "b", "c"});
  t.row({"only-one"});
  EXPECT_EQ(t.data()[0].size(), 3u);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::ratio(1.756), "1.76x");
  EXPECT_EQ(Table::ratio(2209.4), "2209x");
}

TEST(TableTest, CsvExport) {
  Table t("demo", {"a", "b"});
  t.row({"1", "2"});
  const std::string path = ::testing::TempDir() + "/tfsim_table.csv";
  ASSERT_TRUE(t.to_csv(path));
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "a,b\n1,2\n");
  EXPECT_FALSE(t.to_csv("/no-such-dir-xyz/t.csv"));
}

// --- session ---------------------------------------------------------------

workloads::StreamConfig tiny_stream() {
  workloads::StreamConfig cfg;
  cfg.elements = 600'000;  // 14.4 MB of arrays: beyond the 10 MiB L3
  return cfg;
}

TEST(SessionTest, AttachesAndRunsStream) {
  SessionConfig cfg;
  cfg.scenario.injector.period = 1;
  Session s(cfg);
  ASSERT_TRUE(s.attached());
  const auto res = s.run_stream(tiny_stream());
  EXPECT_TRUE(res.validated);
  EXPECT_GT(res.best_bandwidth_gbps, 1.0);
}

TEST(SessionTest, PeriodReachesInjector) {
  SessionConfig cfg;
  cfg.scenario.injector.period = 50;
  Session s(cfg);
  ASSERT_TRUE(s.attached());
  EXPECT_EQ(s.injector_interval(), sim::clock_period(320e6) * 50);
}

TEST(SessionTest, ExtremePeriodFailsAttach) {
  SessionConfig cfg;
  cfg.scenario.injector.period = 10000;
  Session s(cfg);
  EXPECT_FALSE(s.attached());
}

TEST(SessionTest, DistributionModeConfigures) {
  SessionConfig cfg;
  cfg.scenario.injector.dist_kind = net::DistKind::kExponential;
  cfg.scenario.injector.dist_mean_us = 1;
  Session s(cfg);
  ASSERT_TRUE(s.attached());
  EXPECT_EQ(s.injector_interval(), 0u) << "no fixed interval in dist mode";
  const auto res = s.run_stream(tiny_stream());
  EXPECT_TRUE(res.validated);
}

TEST(SessionTest, LocalPlacementIgnoresInjector) {
  SessionConfig remote_cfg;
  remote_cfg.scenario.injector.period = 200;
  Session remote(remote_cfg);
  const auto r = remote.run_stream(tiny_stream());

  SessionConfig local_cfg;
  local_cfg.scenario.injector.period = 200;
  local_cfg.placement = node::Placement::kLocal;
  Session local(local_cfg);
  const auto l = local.run_stream(tiny_stream());
  EXPECT_GT(l.best_bandwidth_gbps, 20 * r.best_bandwidth_gbps);
}

// Every block of the scenario a Session is given reaches the run: the lossy
// fabric's loss, corruption and flaps make the borrower NIC retransmit, and
// the spec the cluster ran is the one loaded (so a bench's echoed
// .scenario.json describes what produced its CSV).
TEST(SessionTest, ScenarioFaultsReachTheRun) {
  const scenario::ScenarioSpec loaded = scenario::load_file(
      std::string(TFSIM_SOURCE_DIR) + "/scenarios/faulty_fabric.json");
  SessionConfig cfg;
  cfg.scenario = loaded;
  Session s(cfg);
  ASSERT_TRUE(s.attached());
  const auto res = s.run_stream(tiny_stream());
  EXPECT_TRUE(res.validated);
  const auto& replay = s.nic().replay();
  EXPECT_GT(replay.retries(), 0u);
  EXPECT_GT(replay.frames_lost(), 0u);
  EXPECT_EQ(scenario::resolved_json(s.cluster().spec()),
            scenario::resolved_json(loaded));

  Session clean(SessionConfig{});
  clean.run_stream(tiny_stream());
  EXPECT_EQ(clean.nic().replay().retries(), 0u) << "paper_twonode is lossless";
}

// --- resilience ---------------------------------------------------------------

ResilienceOptions tiny_resilience() {
  ResilienceOptions opts;
  opts.stream = tiny_stream();
  return opts;
}

TEST(ResilienceTest, HealthyAtLowPeriod) {
  const auto p = assess_resilience(1, tiny_resilience());
  EXPECT_TRUE(p.attached);
  EXPECT_EQ(p.health, HealthClass::kHealthy);
  EXPECT_GT(p.stream_bandwidth_gbps, 0.0);
}

TEST(ResilienceTest, DegradedAtHighPeriod) {
  const auto p = assess_resilience(1000, tiny_resilience());
  EXPECT_TRUE(p.attached);
  EXPECT_EQ(p.health, HealthClass::kDegraded);
  EXPECT_GT(p.stream_latency_us, 100.0);
}

TEST(ResilienceTest, DeviceLostAtExtremePeriod) {
  const auto p = assess_resilience(10000, tiny_resilience());
  EXPECT_FALSE(p.attached);
  EXPECT_EQ(p.health, HealthClass::kDeviceLost);
  EXPECT_EQ(p.stream_latency_us, 0.0);
}

TEST(ResilienceTest, ClassNames) {
  EXPECT_EQ(to_string(HealthClass::kHealthy), "healthy");
  EXPECT_EQ(to_string(HealthClass::kRecovering), "recovering");
  EXPECT_EQ(to_string(HealthClass::kDegraded), "degraded");
  EXPECT_EQ(to_string(HealthClass::kDetached), "detached");
  EXPECT_EQ(to_string(HealthClass::kDeviceLost), "device-lost");
}

// --- fault matrix -----------------------------------------------------------

TEST(FaultMatrixTest, ClassifyPrecedence) {
  constexpr double kSla = 100.0;
  FaultProbe p;
  p.attached = true;
  p.completed = 100;
  p.avg_latency_us = 2.0;
  EXPECT_EQ(classify(p, kSla), HealthClass::kHealthy);

  p.retries = 5;
  EXPECT_EQ(classify(p, kSla), HealthClass::kRecovering);

  p.avg_latency_us = 250.0;
  EXPECT_EQ(classify(p, kSla), HealthClass::kDegraded)
      << "over-SLA latency outranks recovering";
  p.avg_latency_us = 2.0;
  p.failed = 1;
  EXPECT_EQ(classify(p, kSla), HealthClass::kDegraded)
      << "surfaced failures are degradation even at low latency";

  p.detached_lenders = 1;
  EXPECT_EQ(classify(p, kSla), HealthClass::kDetached)
      << "capacity loss outranks degradation";

  p.attached = false;
  EXPECT_EQ(classify(p, kSla), HealthClass::kDeviceLost)
      << "no attach outranks everything";
}

TEST(FaultMatrixTest, TinyMatrixClassifiesAndBalances) {
  core::FaultMatrixOptions opts;
  // Shrink the retry timer so the lossy points stay fast.
  for (auto& node : opts.scenario.nodes) {
    node.nic.replay.retry_timeout = sim::from_us(5.0);
  }
  opts.periods = {1};
  opts.loss_rates = {0.0, 1e-2};
  opts.flap_schedules = {{}};
  opts.seed = 5;
  opts.accesses = 300;

  const auto probes = assess_fault_matrix(opts, 1);
  ASSERT_EQ(probes.size(), 2u);

  const auto& clean = probes[0];
  EXPECT_TRUE(clean.attached);
  EXPECT_EQ(clean.health, HealthClass::kHealthy);
  EXPECT_EQ(clean.completed, 300u);
  EXPECT_EQ(clean.retries, 0u);

  const auto& lossy = probes[1];
  EXPECT_TRUE(lossy.attached);
  EXPECT_EQ(lossy.health, HealthClass::kRecovering);
  EXPECT_GT(lossy.retries, 0u);
  EXPECT_GT(lossy.recovered, 0u);
  EXPECT_EQ(lossy.completed + lossy.failed, 300u);
  EXPECT_EQ(lossy.frames_lost + lossy.crc_drops,
            lossy.retries + lossy.abandoned)
      << "replay ledger must balance";
  EXPECT_GT(lossy.avg_latency_us, clean.avg_latency_us)
      << "loss costs latency";

  // Fan-out determinism: the parallel sweep reproduces the serial results
  // field for field.
  const auto parallel = assess_fault_matrix(opts, 4);
  ASSERT_EQ(parallel.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(parallel[i].completed, probes[i].completed) << i;
    EXPECT_EQ(parallel[i].retries, probes[i].retries) << i;
    EXPECT_EQ(parallel[i].frames_lost, probes[i].frames_lost) << i;
    EXPECT_DOUBLE_EQ(parallel[i].avg_latency_us, probes[i].avg_latency_us)
        << i;
    EXPECT_EQ(parallel[i].health, probes[i].health) << i;
  }
}

TEST(FaultMatrixTest, EmptyFlapAxisRejected) {
  core::FaultMatrixOptions opts;
  opts.flap_schedules.clear();
  EXPECT_THROW(assess_fault_matrix(opts, 1), std::invalid_argument);
}

}  // namespace
}  // namespace tfsim::core
