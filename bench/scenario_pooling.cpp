// Scenario-driven pooling/contention bench (the N-node generalization of
// Fig. 6): builds whatever cluster a scenario file declares and sweeps the
// cluster-shape axes -- lender count (1-borrower-N-lender pooling, striped
// placement), borrower count (M pairs sharing a dumbbell trunk), workload
// instances per borrower, and the injector PERIOD.
//
// Axis precedence: command-line flag > the scenario's sweep block > a
// single point at the scenario's declared shape.  Every run echoes the
// fully-resolved spec next to the CSV, so each result states exactly what
// produced it.
//
// Each point is an independent Cluster, so the sweep fans out across
// $TFSIM_JOBS workers; the table/CSV are identical for any worker count.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/config.hpp"
#include "workloads/stream/stream_flow.hpp"

using namespace tfsim;

namespace {

struct Point {
  std::uint32_t borrowers = 0;  ///< 0 = keep the scenario's declared count
  std::uint32_t lenders = 0;    ///< 0 = keep the scenario's declared count
  std::uint32_t instances = 1;  ///< concurrent flows per borrower
  scenario::ScenarioSpec spec;  ///< the scenario at this point's PERIOD
};

struct Row {
  Point p;
  bool attached = false;
  double aggregate_gbps = 0.0;
  double per_borrower_gbps = 0.0;
  double min_borrower_gbps = 0.0;
  double max_borrower_gbps = 0.0;
};

Row run_point(const Point& p) {
  scenario::ScenarioSpec spec = p.spec;
  if (p.borrowers > 0) spec.set_borrower_count(p.borrowers);
  if (p.lenders > 0) spec.set_lender_count(p.lenders);

  node::Cluster cluster(spec);
  Row row;
  row.p = p;
  // Report the realized shape, not the axis placeholder (0 = declared).
  row.p.borrowers = static_cast<std::uint32_t>(cluster.num_borrowers());
  row.p.lenders = static_cast<std::uint32_t>(cluster.num_lenders());
  row.attached = cluster.attach_remote();
  if (!row.attached) return row;

  const sim::Time measure_end =
      sim::from_ms(static_cast<double>(bench::env_u64("TFSIM_FLOW_MS", 20)));
  std::vector<std::unique_ptr<workloads::RemoteStreamFlow>> flows;
  std::vector<double> borrower_gbps(cluster.num_borrowers(), 0.0);
  for (std::size_t b = 0; b < cluster.num_borrowers(); ++b) {
    // Instances split the borrower's remote window so concurrent flows
    // walk disjoint ranges (the Fig. 6 setup, striped chunks included).
    const std::uint64_t span = cluster.remote_span(b) / p.instances;
    for (std::uint32_t i = 0; i < p.instances; ++i) {
      workloads::FlowConfig cfg;
      cfg.concurrency = 128;
      cfg.base = cluster.remote_base(b) + std::uint64_t{i} * span;
      cfg.span_bytes = span;
      cfg.stop_at = measure_end;
      flows.push_back(std::make_unique<workloads::RemoteStreamFlow>(
          cluster.engine(), cluster.borrower(b).nic(), cfg));
    }
  }
  for (auto& f : flows) f->start();
  cluster.engine().run();

  for (std::size_t b = 0; b < cluster.num_borrowers(); ++b) {
    for (std::uint32_t i = 0; i < p.instances; ++i) {
      borrower_gbps[b] +=
          flows[b * p.instances + i]->stats().bandwidth_gbps(measure_end);
    }
  }
  row.min_borrower_gbps = 1e30;
  for (const double bw : borrower_gbps) {
    row.aggregate_gbps += bw;
    row.min_borrower_gbps = std::min(row.min_borrower_gbps, bw);
    row.max_borrower_gbps = std::max(row.max_borrower_gbps, bw);
  }
  row.per_borrower_gbps =
      row.aggregate_gbps / static_cast<double>(cluster.num_borrowers());
  return row;
}

void print_table(const std::string& scenario_name, const std::vector<Row>& rows) {
  core::Table table(
      "Scenario sweep: " + scenario_name + " (cluster shape x PERIOD)",
      {"borrowers", "lenders", "instances", "PERIOD", "attached",
       "aggregate BW (GB/s)", "per-borrower BW (GB/s)",
       "min/max borrower (GB/s)"});
  for (const auto& r : rows) {
    table.row({std::to_string(r.p.borrowers), std::to_string(r.p.lenders),
               std::to_string(r.p.instances),
               std::to_string(r.p.spec.injector.period),
               r.attached ? "yes" : "NO",
               core::Table::num(r.aggregate_gbps, 3),
               core::Table::num(r.per_borrower_gbps, 3),
               core::Table::num(r.min_borrower_gbps, 3) + " / " +
                   core::Table::num(r.max_borrower_gbps, 3)});
  }
  table.print();
  table.to_csv(bench::csv_path("scenario_pooling.csv"));
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Scenario-driven cluster sweep: lender pooling, trunk sharing, and "
      "PERIOD injection on any scenarios/*.json testbed");
  args.add_string("scenario", "pooling_1xN",
                  "scenario name (scenarios/<name>.json) or path");
  args.add_int_list("periods", "", "injector PERIOD axis (comma-separated)");
  args.add_int_list("lenders", "", "lender-count axis (comma-separated)");
  args.add_int_list("borrowers", "", "borrower-count axis (comma-separated)");
  args.add_int_list("instances", "",
                    "flows per borrower axis (comma-separated)");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  const auto periods = bench::axis_values<std::uint64_t>(
      args.int_list("periods"), spec.sweep.periods, {1});
  const auto lenders = bench::axis_values<std::uint32_t>(
      args.int_list("lenders"), spec.sweep.lenders, {0});
  const auto borrowers = bench::axis_values<std::uint32_t>(
      args.int_list("borrowers"), spec.sweep.borrowers, {0});
  const auto instances = bench::axis_values<std::uint32_t>(
      args.int_list("instances"), spec.sweep.instances, {1});

  std::vector<Point> points;
  for (const auto b : borrowers) {
    for (const auto l : lenders) {
      for (const auto i : instances) {
        for (const auto period : periods) {
          points.push_back({b, l, i, bench::at_period(spec, period)});
        }
      }
    }
  }
  const auto rows = bench::run_sweep("scenario_pooling", points, run_point);

  // Record the axes actually swept in the provenance echo.
  spec.sweep.periods = periods;
  spec.sweep.lenders = lenders;
  spec.sweep.borrowers = borrowers;
  spec.sweep.instances = instances;
  print_table(spec.name, rows);
  bench::echo_scenario(spec, "scenario_pooling.csv");
  return 0;
}
