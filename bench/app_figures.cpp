// Figure 5 and Table I: application performance under injected delay.
//
// Figure 5: degradation relative to *vanilla ThymesisFlow* (PERIOD = 1,
// remote memory).  The paper's shape: Redis stays ~1.01x across the whole
// sweep (network-stack-bound), while Graph500 BFS grows to ~10.7x and SSSP
// to ~8x (memory/compute-bound).  A ~30 us injected delay costs Redis <1%
// but ~7x on Graph500.
//
// Table I: completion time on disaggregated memory / completion time on
// local memory, for PERIOD = 1 and PERIOD = 1000.  Paper's measured row:
//                                PERIOD=1   PERIOD=1000
//   Redis                        1.01x      1.73x
//   Graph500 BFS                 6x         2209x
//   Graph500 SSSP                5.3x       1800x
//
// One sweep computes every cell both need: Redis (Memtier), Graph500 BFS
// and SSSP in remote memory at each PERIOD of the Fig. 5 axis plus 1 and
// 1000, and in local memory once.  Each cell is an independent Session
// fanned out across $TFSIM_JOBS workers; the shared edge list is generated
// once up front and only read inside the sweep.
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
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
constexpr App kApps[] = {App::kRedis, App::kBfs, App::kSssp};

const char* name(App app) {
  switch (app) {
    case App::kRedis: return "Redis";
    case App::kBfs: return "Graph500 BFS";
    case App::kSssp: return "Graph500 SSSP";
  }
  return "?";
}

struct Cell {
  App app = App::kRedis;
  node::Placement placement = node::Placement::kRemote;
  scenario::ScenarioSpec spec;  ///< the scenario at this cell's PERIOD
};

struct Outcome {
  sim::Time elapsed = 0;
  bool validated = true;  ///< Redis: every GET body matched
  std::string error;      ///< Graph500: the validation error, "" when valid
  double host_s = 0.0;    ///< host wall time of the cell (stdout only)
};

Outcome run_cell(const Cell& c, const workloads::g500::EdgeList& edges) {
  const auto t0 = std::chrono::steady_clock::now();
  core::SessionConfig cfg;
  cfg.scenario = c.spec;
  cfg.placement = c.placement;
  core::Session session(cfg);
  Outcome out;
  switch (c.app) {
    case App::kRedis: {
      const auto r =
          session.run_memtier(bench::kv_store_config(), bench::memtier_config());
      out.elapsed = r.elapsed;
      out.validated = r.validated;
      break;
    }
    case App::kBfs: {
      const auto job = session.run_bfs_job(bench::graph_config(), edges, 1);
      out.elapsed = job.total();
      out.error = job.validation_error;
      break;
    }
    case App::kSssp: {
      const auto job = session.run_sssp_job(bench::graph_config(), edges, 1);
      out.elapsed = job.total();
      out.error = job.validation_error;
      break;
    }
  }
  out.host_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0).count();
  return out;
}

/// One placement-and-PERIOD column of outcomes, indexed by App.
using Column = std::map<App, Outcome>;

void print_fig5(const std::set<std::uint64_t>& periods,
                const std::map<std::uint64_t, Column>& remote) {
  const Column& base = remote.at(1);
  core::Table table(
      "Figure 5: degradation vs vanilla ThymesisFlow (PERIOD = 1)",
      {"PERIOD", "Redis", "Graph500 BFS", "Graph500 SSSP"});
  for (const auto period : periods) {
    std::vector<std::string> row = {std::to_string(period)};
    for (const App app : kApps) {
      row.push_back(core::Table::ratio(core::degradation_from_times(
          remote.at(period).at(app).elapsed, base.at(app).elapsed)));
    }
    table.row(row);
  }
  table.print();
  table.to_csv(bench::csv_path("fig5_app_degradation.csv"));
  std::puts("Paper shape: Redis ~1.01x flat; BFS rises to ~10.7x; SSSP to ~8x.");
}

void print_table1(const std::map<std::uint64_t, Column>& remote,
                  const Column& local) {
  core::Table table(
      "Table I: impact of high delay on application performance "
      "(completion time vs local memory)",
      {"workload", "PERIOD=1", "PERIOD=1000", "paper PERIOD=1",
       "paper PERIOD=1000", "functional check"});
  // The functional check covers the three cells a row reports: "FAILED"
  // when a Redis cell returned a wrong GET body, else the last Graph500
  // validation error, else `ok`.
  const auto row = [&](App app, const char* paper_p1, const char* paper_p1000,
                       const char* ok) {
    const Outcome* trio[] = {&local.at(app), &remote.at(1).at(app),
                             &remote.at(1000).at(app)};
    bool validated = true;
    std::string check = ok;
    for (const Outcome* o : trio) {
      validated = validated && o->validated;
      if (!o->error.empty()) check = o->error;
    }
    table.row({name(app),
               core::Table::ratio(core::degradation_from_times(
                   trio[1]->elapsed, trio[0]->elapsed)),
               core::Table::ratio(core::degradation_from_times(
                   trio[2]->elapsed, trio[0]->elapsed)),
               paper_p1, paper_p1000, validated ? check : "FAILED"});
  };
  row(App::kRedis, "1.01x", "1.73x", "GET/SET validated");
  row(App::kBfs, "6x", "2209x", "BFS tree validated");
  row(App::kSssp, "5.3x", "1800x", "SSSP dist validated");
  table.print();
  table.to_csv(bench::csv_path("table1_high_delay.csv"));
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Figure 5 and Table I: application degradation vs injection PERIOD");
  args.add_string("scenario", "paper_twonode",
                  "scenario name (scenarios/<name>.json) or path");
  args.add_int_list("periods", "",
                    "Figure 5 PERIOD axis override (comma-separated)");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  const auto periods = bench::axis_values<std::uint64_t>(
      args.int_list("periods"), spec.sweep.periods, kPeriods);

  // Remote cells at every Fig. 5 PERIOD (ascending and de-duplicated,
  // whatever order --periods gave) plus Table I's 1 and 1000; the local
  // baselines run once, at PERIOD 1.
  const std::set<std::uint64_t> fig5_periods(periods.begin(), periods.end());
  std::set<std::uint64_t> remote_periods = fig5_periods;
  remote_periods.insert({1, 1000});
  std::vector<Cell> cells;
  for (const auto period : remote_periods) {
    for (const App app : kApps) {
      cells.push_back({app, node::Placement::kRemote,
                       bench::at_period(spec, period)});
    }
  }
  for (const App app : kApps) {
    cells.push_back({app, node::Placement::kLocal, bench::at_period(spec, 1)});
  }

  // Generate the shared graph input once, before the fan-out.
  const workloads::g500::EdgeList edges =
      workloads::g500::kronecker_generate(bench::graph_config().gen);
  const auto outcomes = bench::run_sweep(
      "app_figures", cells,
      [&](const Cell& c) { return run_cell(c, edges); });

  std::map<std::uint64_t, Column> remote;
  Column local;
  core::Table host("Host wall time per cell",
                   {"workload", "placement", "PERIOD", "host (s)"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const bool is_local = c.placement == node::Placement::kLocal;
    Column& column = is_local ? local : remote[c.spec.injector.period];
    column[c.app] = outcomes[i];
    host.row({name(c.app), is_local ? "local" : "remote",
              std::to_string(c.spec.injector.period),
              core::Table::num(outcomes[i].host_s, 2)});
  }
  host.print();
  print_fig5(fig5_periods, remote);
  print_table1(remote, local);
  spec.sweep.periods = periods;
  bench::echo_scenario(spec, "fig5_app_degradation.csv");
  spec.sweep.periods = {1, 1000};
  bench::echo_scenario(spec, "table1_high_delay.csv");
  return 0;
}
