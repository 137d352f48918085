// Figure 6: contention for bandwidth at the borrower node (MCBN).
//
// N concurrent STREAM instances run on the borrower, all using
// disaggregated memory from the lender.  They compete for the bottleneck
// network bandwidth, so per-instance bandwidth is ~total/N (the round-robin
// egress divides it equally) while aggregate stays flat.
//
// Each instance count is an independent Cluster, so the sweep fans out
// across $TFSIM_JOBS workers; the table/CSV are identical for any count.
#include <algorithm>
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

const std::vector<std::uint32_t> kInstanceCounts = {1, 2, 4, 8};

struct Row {
  int instances = 0;
  double per_instance_gbps = 0.0;
  double aggregate_gbps = 0.0;
  double min_instance_gbps = 0.0;
  double max_instance_gbps = 0.0;
};

Row run_point(const scenario::ScenarioSpec& spec, int n) {
  node::Cluster testbed(spec);
  testbed.attach_remote();
  const sim::Time measure_end = sim::from_ms(20.0);

  std::vector<std::unique_ptr<workloads::RemoteStreamFlow>> flows;
  const std::uint64_t span = 512 * sim::kMiB;
  for (int i = 0; i < n; ++i) {
    workloads::FlowConfig cfg;
    cfg.concurrency = 128;  // one full STREAM instance saturates the NIC
    cfg.base = testbed.remote_base() + static_cast<std::uint64_t>(i) * span;
    cfg.span_bytes = span;
    cfg.stop_at = measure_end;
    flows.push_back(std::make_unique<workloads::RemoteStreamFlow>(
        testbed.engine(), testbed.borrower().nic(), cfg));
  }
  for (auto& f : flows) f->start();
  testbed.engine().run();

  Row row{n, 0, 0, 1e30, 0};
  for (auto& f : flows) {
    const double bw = f->stats().bandwidth_gbps(measure_end);
    row.aggregate_gbps += bw;
    row.min_instance_gbps = std::min(row.min_instance_gbps, bw);
    row.max_instance_gbps = std::max(row.max_instance_gbps, bw);
  }
  row.per_instance_gbps = row.aggregate_gbps / n;
  return row;
}

void print_table(const std::vector<Row>& rows) {
  core::Table table(
      "Figure 6: memory contention at the borrower node (MCBN)",
      {"STREAM instances", "per-instance BW (GB/s)", "aggregate BW (GB/s)",
       "min/max instance (GB/s)"});
  for (const auto& r : rows) {
    table.row({std::to_string(r.instances),
               core::Table::num(r.per_instance_gbps, 3),
               core::Table::num(r.aggregate_gbps, 3),
               core::Table::num(r.min_instance_gbps, 3) + " / " +
                   core::Table::num(r.max_instance_gbps, 3)});
  }
  table.print();
  table.to_csv(bench::csv_path("fig6_contention_borrower.csv"));
  std::puts("Paper shape: equal division of the bottleneck network bandwidth"
            " among competing instances (per-instance ~ total/N).");
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Figure 6: memory contention at the borrower node (MCBN)");
  args.add_string("scenario", "paper_twonode",
                  "scenario name (scenarios/<name>.json) or path");
  args.add_int_list("instances", "",
                    "STREAM instance-count axis override (comma-separated)");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  const auto counts = bench::axis_values<std::uint32_t>(
      args.int_list("instances"), spec.sweep.instances, kInstanceCounts);

  const auto rows = bench::run_sweep(
      "fig6_contention_borrower", counts, [&](std::uint32_t n) {
        return run_point(spec, static_cast<int>(n));
      });
  print_table(rows);
  spec.sweep.instances = counts;
  bench::echo_scenario(spec, "fig6_contention_borrower.csv");
  return 0;
}
