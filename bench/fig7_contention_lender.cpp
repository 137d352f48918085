// Figure 7: contention for bandwidth at the lender node (MCLN).
//
// One STREAM instance on the borrower uses disaggregated memory while N
// STREAM instances hammer the lender's local memory bus.  The lender bus
// (100s of GB/s) dwarfs the network (100 Gb/s), so borrower-visible
// bandwidth stays flat regardless of lender-side load -- the paper's
// insight that busy and idle lenders are equally viable.
//
// Each lender load level is an independent Cluster, so the sweep fans out
// across $TFSIM_JOBS workers; the table/CSV are identical for any count.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "node/cluster.hpp"
#include "sim/config.hpp"
#include "workloads/stream/stream_flow.hpp"

using namespace tfsim;

namespace {

const std::vector<std::uint32_t> kLenderInstances = {0, 1, 2, 4, 8};

struct Row {
  int lender_instances = 0;
  double borrower_gbps = 0.0;
  double lender_aggregate_gbps = 0.0;
  double lender_bus_utilization = 0.0;
};

Row run_point(const scenario::ScenarioSpec& spec, int n) {
  node::Cluster testbed(spec);
  testbed.attach_remote();
  const sim::Time measure_end = sim::from_ms(20.0);

  workloads::FlowConfig borrower_cfg;
  borrower_cfg.concurrency = 128;
  borrower_cfg.base = testbed.remote_base();
  borrower_cfg.span_bytes = 512 * sim::kMiB;
  borrower_cfg.stop_at = measure_end;
  workloads::RemoteStreamFlow borrower_flow(
      testbed.engine(), testbed.borrower().nic(), borrower_cfg);

  std::vector<std::unique_ptr<workloads::LocalStreamFlow>> lender_flows;
  for (int i = 0; i < n; ++i) {
    workloads::FlowConfig cfg;
    cfg.concurrency = 64;  // a full STREAM instance's worth of demand
    cfg.stop_at = measure_end;
    lender_flows.push_back(std::make_unique<workloads::LocalStreamFlow>(
        testbed.engine(), testbed.lender().dram(), cfg));
  }

  borrower_flow.start();
  for (auto& f : lender_flows) f->start();
  testbed.engine().run();

  Row row{n, borrower_flow.stats().bandwidth_gbps(measure_end), 0.0,
          testbed.lender().dram().utilization(measure_end)};
  for (auto& f : lender_flows) {
    row.lender_aggregate_gbps += f->stats().bandwidth_gbps(measure_end);
  }
  return row;
}

void print_table(const std::vector<Row>& rows) {
  core::Table table(
      "Figure 7: memory contention at the lender node (MCLN)",
      {"lender STREAM instances", "borrower BW (GB/s)",
       "lender local BW (GB/s)", "lender bus utilization"});
  for (const auto& r : rows) {
    table.row({std::to_string(r.lender_instances),
               core::Table::num(r.borrower_gbps, 3),
               core::Table::num(r.lender_aggregate_gbps, 1),
               core::Table::num(r.lender_bus_utilization * 100.0, 1) + "%"});
  }
  table.print();
  table.to_csv(bench::csv_path("fig7_contention_lender.csv"));
  std::puts("Paper shape: borrower bandwidth independent of lender-side"
            " instance count (network remains the bottleneck).");
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Figure 7: memory contention at the lender node (MCLN)");
  args.add_string("scenario", "paper_twonode",
                  "scenario name (scenarios/<name>.json) or path");
  args.add_int_list("instances", "",
                    "lender-side STREAM instance axis override "
                    "(comma-separated)");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  const auto counts = bench::axis_values<std::uint32_t>(
      args.int_list("instances"), spec.sweep.instances, kLenderInstances);

  const auto rows = bench::run_sweep(
      "fig7_contention_lender", counts, [&](std::uint32_t n) {
        return run_point(spec, static_cast<int>(n));
      });
  print_table(rows);
  spec.sweep.instances = counts;
  bench::echo_scenario(spec, "fig7_contention_lender.csv");
  return 0;
}
