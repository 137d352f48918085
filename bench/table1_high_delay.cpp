// Table I: impact of high delay on application performance.
//
// Degradation = completion time on disaggregated memory under injection /
// completion time on local memory, for PERIOD = 1 (vanilla ThymesisFlow)
// and PERIOD = 1000, across Redis (Memtier), Graph500 BFS, Graph500 SSSP.
//
// Paper's measured row:          PERIOD=1   PERIOD=1000
//   Redis                        1.01x      1.73x
//   Graph500 BFS                 6x         2209x
//   Graph500 SSSP                5.3x       1800x
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/session.hpp"

using namespace tfsim;

namespace {

struct Table1State {
  // Completion times (simulated) per workload/config.
  sim::Time redis_local = 0, redis_p1 = 0, redis_p1000 = 0;
  sim::Time bfs_local = 0, bfs_p1 = 0, bfs_p1000 = 0;
  sim::Time sssp_local = 0, sssp_p1 = 0, sssp_p1000 = 0;
  bool redis_ok = true;
  std::string bfs_err, sssp_err;
};
Table1State g_state;

core::SessionConfig session_cfg(std::uint64_t period, node::Placement placement) {
  core::SessionConfig cfg;
  cfg.scenario.injector.period = period;
  cfg.placement = placement;
  return cfg;
}

const workloads::g500::EdgeList& shared_edges() {
  static const workloads::g500::EdgeList el =
      workloads::g500::kronecker_generate(bench::graph_config().gen);
  return el;
}

void BM_Redis(benchmark::State& state) {
  const std::uint64_t period = static_cast<std::uint64_t>(state.range(0));
  const auto placement =
      state.range(1) ? node::Placement::kRemote : node::Placement::kLocal;
  for (auto _ : state) {
    core::Session session(session_cfg(period, placement));
    const auto res =
        session.run_memtier(bench::kv_store_config(), bench::memtier_config());
    g_state.redis_ok = g_state.redis_ok && res.validated;
    state.counters["ops_per_sec"] = res.ops_per_sec;
    state.counters["elapsed_ms"] = sim::to_ms(res.elapsed);
    auto& slot = placement == node::Placement::kLocal
                     ? g_state.redis_local
                     : (period == 1 ? g_state.redis_p1 : g_state.redis_p1000);
    slot = res.elapsed;
  }
}

void BM_GraphBfs(benchmark::State& state) {
  const std::uint64_t period = static_cast<std::uint64_t>(state.range(0));
  const auto placement =
      state.range(1) ? node::Placement::kRemote : node::Placement::kLocal;
  for (auto _ : state) {
    core::Session session(session_cfg(period, placement));
    const auto job = session.run_bfs_job(bench::graph_config(), shared_edges(), 1);
    if (!job.validation_error.empty()) g_state.bfs_err = job.validation_error;
    state.counters["job_ms"] = sim::to_ms(job.total());
    auto& slot = placement == node::Placement::kLocal
                     ? g_state.bfs_local
                     : (period == 1 ? g_state.bfs_p1 : g_state.bfs_p1000);
    slot = job.total();
  }
}

void BM_GraphSssp(benchmark::State& state) {
  const std::uint64_t period = static_cast<std::uint64_t>(state.range(0));
  const auto placement =
      state.range(1) ? node::Placement::kRemote : node::Placement::kLocal;
  for (auto _ : state) {
    core::Session session(session_cfg(period, placement));
    const auto job = session.run_sssp_job(bench::graph_config(), shared_edges(), 1);
    if (!job.validation_error.empty()) g_state.sssp_err = job.validation_error;
    state.counters["job_ms"] = sim::to_ms(job.total());
    auto& slot = placement == node::Placement::kLocal
                     ? g_state.sssp_local
                     : (period == 1 ? g_state.sssp_p1 : g_state.sssp_p1000);
    slot = job.total();
  }
}

// range(0) = PERIOD, range(1) = 1 remote / 0 local baseline.
BENCHMARK(BM_Redis)->Args({1, 0})->Args({1, 1})->Args({1000, 1})
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GraphBfs)->Args({1, 0})->Args({1, 1})->Args({1000, 1})
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GraphSssp)->Args({1, 0})->Args({1, 1})->Args({1000, 1})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void print_table() {
  core::Table table(
      "Table I: impact of high delay on application performance "
      "(completion time vs local memory)",
      {"workload", "PERIOD=1", "PERIOD=1000", "paper PERIOD=1",
       "paper PERIOD=1000", "functional check"});
  table.row({"Redis",
             core::Table::ratio(core::degradation_from_times(
                 g_state.redis_p1, g_state.redis_local)),
             core::Table::ratio(core::degradation_from_times(
                 g_state.redis_p1000, g_state.redis_local)),
             "1.01x", "1.73x", g_state.redis_ok ? "GET/SET validated" : "FAILED"});
  table.row({"Graph500 BFS",
             core::Table::ratio(core::degradation_from_times(
                 g_state.bfs_p1, g_state.bfs_local)),
             core::Table::ratio(core::degradation_from_times(
                 g_state.bfs_p1000, g_state.bfs_local)),
             "6x", "2209x",
             g_state.bfs_err.empty() ? "BFS tree validated" : g_state.bfs_err});
  table.row({"Graph500 SSSP",
             core::Table::ratio(core::degradation_from_times(
                 g_state.sssp_p1, g_state.sssp_local)),
             core::Table::ratio(core::degradation_from_times(
                 g_state.sssp_p1000, g_state.sssp_local)),
             "5.3x", "1800x",
             g_state.sssp_err.empty() ? "SSSP dist validated" : g_state.sssp_err});
  table.print();
  table.to_csv(bench::csv_path("table1_high_delay.csv"));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  return 0;
}
