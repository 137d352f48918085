// End-to-end properties: the paper's headline behaviours must hold on the
// assembled system (scaled down for test speed).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/metrics.hpp"
#include "core/session.hpp"
#include "sim/stats.hpp"
#include "workloads/stream/stream_flow.hpp"

namespace tfsim {
namespace {

workloads::StreamConfig test_stream() {
  workloads::StreamConfig cfg;
  cfg.elements = 800'000;  // 19 MB of arrays: misses through the 10 MiB L3
  return cfg;
}

// Fig. 2 property: PERIOD-latency relation is linear with high R^2.
TEST(IntegrationTest, PeriodLatencyIsLinear) {
  std::vector<double> periods, latencies;
  for (const std::uint64_t p : {8, 16, 32, 64, 128}) {
    core::SessionConfig cfg;
    cfg.scenario.injector.period = p;
    core::Session s(cfg);
    ASSERT_TRUE(s.attached());
    const auto res = s.run_stream(test_stream());
    periods.push_back(static_cast<double>(p));
    latencies.push_back(res.avg_latency_us);
  }
  const auto fit = sim::linear_fit(periods, latencies);
  EXPECT_GT(fit.r2, 0.999) << "paper: strong linear correlation";
  EXPECT_GT(fit.slope, 0.0);
}

// Fig. 3 property: bandwidth-delay product is constant in the saturated
// regime.
TEST(IntegrationTest, BdpIsConstantAcrossInjection) {
  std::vector<double> bdps;
  for (const std::uint64_t p : {16, 64, 256}) {
    core::SessionConfig cfg;
    cfg.scenario.injector.period = p;
    core::Session s(cfg);
    ASSERT_TRUE(s.attached());
    const auto res = s.run_stream(test_stream());
    const auto& copy = res.kernel("copy");
    bdps.push_back(core::bdp_kb(copy.bandwidth_gbps, copy.avg_latency_us));
  }
  for (const double bdp : bdps) {
    EXPECT_NEAR(bdp, bdps.front(), bdps.front() * 0.05)
        << "BDP must stay ~constant";
  }
  // And it equals window x line size.
  EXPECT_NEAR(bdps.front(), 128 * 128.0 / 1000.0, 2.0);
}

// Table I / Fig. 5 property: Redis is delay-insensitive, Graph500 is not.
TEST(IntegrationTest, RedisInsensitiveGraphSensitive) {
  workloads::g500::Graph500Config gcfg;
  gcfg.gen.scale = 14;
  gcfg.gen.edgefactor = 16;
  const auto edges = workloads::g500::kronecker_generate(gcfg.gen);

  workloads::kv::KvStoreConfig store_cfg;
  store_cfg.buckets = 1 << 12;
  store_cfg.max_keys = 1 << 13;
  workloads::kv::MemtierConfig load_cfg;
  load_cfg.threads = 1;
  load_cfg.connections = 10;
  load_cfg.requests_per_client = 60;
  load_cfg.key_space = 2000;

  sim::Time redis_base = 0, redis_slow = 0, bfs_base = 0, bfs_slow = 0;
  for (const std::uint64_t p : {std::uint64_t{1}, std::uint64_t{400}}) {
    core::SessionConfig cfg;
    cfg.scenario.injector.period = p;
    core::Session s(cfg);
    ASSERT_TRUE(s.attached());
    const auto redis = s.run_memtier(store_cfg, load_cfg);
    const auto bfs = s.run_bfs_job(gcfg, edges, 1);
    ASSERT_TRUE(redis.validated);
    ASSERT_EQ(bfs.validation_error, "");
    (p == 1 ? redis_base : redis_slow) = redis.elapsed;
    (p == 1 ? bfs_base : bfs_slow) = bfs.total();
  }
  const double redis_deg = core::degradation_from_times(redis_slow, redis_base);
  const double bfs_deg = core::degradation_from_times(bfs_slow, bfs_base);
  EXPECT_LT(redis_deg, 1.6) << "Redis stays network-stack bound";
  EXPECT_GT(bfs_deg, 4.0) << "Graph500 collapses under the same delay";
  EXPECT_GT(bfs_deg, 3.0 * redis_deg);
}

// Fig. 6 property: equal division among borrower-side competitors.
TEST(IntegrationTest, BorrowerContentionDividesEqually) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  const sim::Time stop = sim::from_ms(5.0);
  std::vector<std::unique_ptr<workloads::RemoteStreamFlow>> flows;
  for (int i = 0; i < 4; ++i) {
    workloads::FlowConfig cfg;
    cfg.concurrency = 64;
    cfg.base = tb.remote_base() + static_cast<std::uint64_t>(i) * 64 * sim::kMiB;
    cfg.span_bytes = 64 * sim::kMiB;
    cfg.stop_at = stop;
    flows.push_back(std::make_unique<workloads::RemoteStreamFlow>(
        tb.engine(), tb.borrower().nic(), cfg));
  }
  for (auto& f : flows) f->start();
  tb.engine().run();
  std::vector<double> bws;
  for (auto& f : flows) bws.push_back(f->stats().bandwidth_gbps(stop));
  for (const double bw : bws) {
    EXPECT_NEAR(bw, bws.front(), bws.front() * 0.05) << "equal division";
  }
}

// Fig. 7 property: lender-side contention does not dent borrower bandwidth.
TEST(IntegrationTest, LenderContentionInvisibleToBorrower) {
  auto run_with_lender_load = [](int lender_instances) {
    node::Cluster tb(scenario::paper_two_node());
    tb.attach_remote();
    const sim::Time stop = sim::from_ms(5.0);
    workloads::FlowConfig bcfg;
    bcfg.concurrency = 64;
    bcfg.base = tb.remote_base();
    bcfg.span_bytes = 64 * sim::kMiB;
    bcfg.stop_at = stop;
    workloads::RemoteStreamFlow borrower(tb.engine(), tb.borrower().nic(), bcfg);
    std::vector<std::unique_ptr<workloads::LocalStreamFlow>> lender_flows;
    for (int i = 0; i < lender_instances; ++i) {
      workloads::FlowConfig lcfg;
      lcfg.concurrency = 64;
      lcfg.stop_at = stop;
      lender_flows.push_back(std::make_unique<workloads::LocalStreamFlow>(
          tb.engine(), tb.lender().dram(), lcfg));
    }
    borrower.start();
    for (auto& f : lender_flows) f->start();
    tb.engine().run();
    return borrower.stats().bandwidth_gbps(stop);
  };
  const double idle = run_with_lender_load(0);
  const double busy = run_with_lender_load(8);
  EXPECT_NEAR(busy / idle, 1.0, 0.02)
      << "network, not the lender bus, is the bottleneck";
}

// Fig. 4 property: the reliability cliff sits between PERIOD 1000 and 10000.
TEST(IntegrationTest, ReliabilityCliffLocation) {
  core::SessionConfig ok_cfg;
  ok_cfg.scenario.injector.period = 1000;
  core::Session ok(ok_cfg);
  EXPECT_TRUE(ok.attached());

  core::SessionConfig dead_cfg;
  dead_cfg.scenario.injector.period = 10000;
  core::Session dead(dead_cfg);
  EXPECT_FALSE(dead.attached());
}

// Future-work property: heavier-tailed injection hurts more at equal mean.
TEST(IntegrationTest, TailShapeMattersAtEqualMean) {
  auto run_dist = [](net::DistKind kind) {
    core::SessionConfig cfg;
    cfg.scenario.injector.dist_kind = kind;
    cfg.scenario.injector.dist_mean_us = 2;
    core::Session s(cfg);
    const auto res = s.run_stream(test_stream());
    return res.best_bandwidth_gbps;
  };
  const double fixed_bw = run_dist(net::DistKind::kFixed);
  const double pareto_bw = run_dist(net::DistKind::kPareto);
  EXPECT_LT(pareto_bw, fixed_bw * 0.75);
}

}  // namespace
}  // namespace tfsim
