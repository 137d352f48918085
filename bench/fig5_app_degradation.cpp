// Figure 5: application performance degradation for varying delay.
//
// Degradation relative to *vanilla ThymesisFlow* (PERIOD = 1, remote
// memory).  The paper's shape: Redis stays ~1.01x across the whole sweep
// (network-stack-bound), while Graph500 BFS grows to ~10.7x and SSSP to
// ~8x (memory/compute-bound).  A ~30 us injected delay costs Redis <1% but
// ~7x on Graph500.
//
// The sweep fans out one Session per (PERIOD, application) cell across
// $TFSIM_JOBS workers; the shared edge list is generated once up front and
// only read inside the sweep.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "sim/config.hpp"

using namespace tfsim;

namespace {

const std::vector<std::uint64_t> kPeriods = {1, 4, 8, 16, 32, 64};

enum class App { kRedis, kBfs, kSssp };

struct Point {
  std::uint64_t period;
  App app;
};

struct PointResult {
  std::uint64_t period = 0;
  App app = App::kRedis;
  sim::Time elapsed = 0;
  double injected_delay_us = 0.0;
};

struct Cell {
  sim::Time redis = 0, bfs = 0, sssp = 0;
  double injected_delay_us = 0.0;
};

core::SessionConfig remote_cfg(const scenario::ScenarioSpec& spec,
                               std::uint64_t period) {
  core::SessionConfig cfg;
  cfg.scenario = spec;
  cfg.scenario.injector.period = period;
  cfg.placement = node::Placement::kRemote;
  return cfg;
}

PointResult run_point(const scenario::ScenarioSpec& spec, const Point& p,
                      const workloads::g500::EdgeList& edges) {
  PointResult res;
  res.period = p.period;
  res.app = p.app;
  core::Session session(remote_cfg(spec, p.period));
  switch (p.app) {
    case App::kRedis: {
      const auto r =
          session.run_memtier(bench::kv_store_config(), bench::memtier_config());
      res.elapsed = r.elapsed;
      break;
    }
    case App::kBfs: {
      const auto job = session.run_bfs_job(bench::graph_config(), edges, 1);
      res.elapsed = job.total();
      // Injected delay proxy: mean added delay per transaction at the gate.
      res.injected_delay_us =
          session.cluster().borrower().nic().injector().added_delay().mean();
      break;
    }
    case App::kSssp: {
      const auto job = session.run_sssp_job(bench::graph_config(), edges, 1);
      res.elapsed = job.total();
      break;
    }
  }
  return res;
}

void print_table(const std::map<std::uint64_t, Cell>& cells) {
  // Degradation baseline: PERIOD = 1 when swept, else the lowest PERIOD.
  const Cell& base = cells.count(1) ? cells.at(1) : cells.begin()->second;
  core::Table table(
      "Figure 5: degradation vs vanilla ThymesisFlow (PERIOD = 1)",
      {"PERIOD", "Redis", "Graph500 BFS", "Graph500 SSSP"});
  for (const auto& [period, cell] : cells) {
    table.row({std::to_string(period),
               core::Table::ratio(core::degradation_from_times(cell.redis, base.redis)),
               core::Table::ratio(core::degradation_from_times(cell.bfs, base.bfs)),
               core::Table::ratio(core::degradation_from_times(cell.sssp, base.sssp))});
  }
  table.print();
  table.to_csv(bench::csv_path("fig5_app_degradation.csv"));
  std::puts("Paper shape: Redis ~1.01x flat; BFS rises to ~10.7x; SSSP to ~8x.");
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Figure 5: application degradation vs injection PERIOD");
  args.add_string("scenario", "paper_twonode",
                  "scenario name (scenarios/<name>.json) or path");
  args.add_string("periods", "", "PERIOD axis override (comma-separated)");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  const auto periods = bench::axis_values<std::uint64_t>(
      args.int_list("periods"), spec.sweep.periods, kPeriods);

  // Generate the shared graph input once, before the fan-out.
  const workloads::g500::EdgeList edges =
      workloads::g500::kronecker_generate(bench::graph_config().gen);

  std::vector<Point> points;
  for (const auto period : periods) {
    for (const App app : {App::kRedis, App::kBfs, App::kSssp}) {
      points.push_back({period, app});
    }
  }
  const auto results = bench::run_sweep(
      "fig5_app_degradation", points,
      [&](const Point& p) { return run_point(spec, p, edges); });

  std::map<std::uint64_t, Cell> cells;
  for (const auto& r : results) {
    Cell& c = cells[r.period];
    switch (r.app) {
      case App::kRedis: c.redis = r.elapsed; break;
      case App::kBfs:
        c.bfs = r.elapsed;
        c.injected_delay_us = r.injected_delay_us;
        break;
      case App::kSssp: c.sssp = r.elapsed; break;
    }
  }
  print_table(cells);
  spec.sweep.periods = periods;
  bench::echo_scenario(spec, "fig5_app_degradation.csv");
  return 0;
}
