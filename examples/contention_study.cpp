// Contention study: reproduce the paper's MCBN/MCLN experiments at custom
// instance counts and watch where the bottleneck actually sits.
//
//   ./contention_study [--instances=1,2,4,8] [--scenario=both|mcbn|mcln]
//                      [--ms=20] [--testbed=paper_twonode]
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

/// N STREAM instances on the borrower, all remote (MCBN).
void run_mcbn(const scenario::ScenarioSpec& spec,
              const std::vector<std::int64_t>& counts, sim::Time horizon) {
  core::Table table("MCBN: all instances on the borrower, remote memory",
                    {"instances", "per-instance GB/s", "aggregate GB/s",
                     "NIC window stalls"});
  for (const auto n : counts) {
    node::Cluster tb(spec);
    tb.attach_remote();
    std::vector<std::unique_ptr<workloads::RemoteStreamFlow>> flows;
    for (std::int64_t i = 0; i < n; ++i) {
      workloads::FlowConfig cfg;
      cfg.concurrency = 128;
      cfg.base = tb.remote_base() + static_cast<std::uint64_t>(i) * 256 * sim::kMiB;
      cfg.span_bytes = 256 * sim::kMiB;
      cfg.stop_at = horizon;
      flows.push_back(std::make_unique<workloads::RemoteStreamFlow>(
          tb.engine(), tb.borrower().nic(), cfg));
    }
    for (auto& f : flows) f->start();
    tb.engine().run();
    double total = 0;
    for (auto& f : flows) total += f->stats().bandwidth_gbps(horizon);
    table.row({std::to_string(n),
               core::Table::num(total / static_cast<double>(n), 3),
               core::Table::num(total, 3),
               std::to_string(tb.borrower().nic().window().stalls())});
  }
  table.print();
  std::puts("-> instances split the bottleneck (network) bandwidth equally.");
}

/// One borrower instance + N instances hammering the lender's bus (MCLN).
void run_mcln(const scenario::ScenarioSpec& spec,
              const std::vector<std::int64_t>& counts, sim::Time horizon) {
  core::Table table("MCLN: borrower streams remotely; N instances on lender",
                    {"lender instances", "borrower GB/s", "lender bus util"});
  for (const auto n : counts) {
    node::Cluster tb(spec);
    tb.attach_remote();
    workloads::FlowConfig bcfg;
    bcfg.concurrency = 128;
    bcfg.base = tb.remote_base();
    bcfg.span_bytes = 256 * sim::kMiB;
    bcfg.stop_at = horizon;
    workloads::RemoteStreamFlow borrower(tb.engine(), tb.borrower().nic(), bcfg);
    std::vector<std::unique_ptr<workloads::LocalStreamFlow>> lender_flows;
    for (std::int64_t i = 0; i < n; ++i) {
      workloads::FlowConfig cfg;
      cfg.concurrency = 64;
      cfg.stop_at = horizon;
      lender_flows.push_back(std::make_unique<workloads::LocalStreamFlow>(
          tb.engine(), tb.lender().dram(), cfg));
    }
    borrower.start();
    for (auto& f : lender_flows) f->start();
    tb.engine().run();
    table.row({std::to_string(n),
               core::Table::num(borrower.stats().bandwidth_gbps(horizon), 3),
               core::Table::num(tb.lender().dram().utilization(horizon) * 100, 1) + "%"});
  }
  table.print();
  std::puts("-> lender-side load barely moves borrower bandwidth: memory-bus"
            " headroom dwarfs the network (the paper's allocation insight).");
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args("contention_study: MCBN / MCLN scenarios");
  args.add_string("instances", "1,2,4,8", "instance counts to sweep");
  args.add_string("scenario", "both", "both | mcbn | mcln");
  args.add_double("ms", 20.0, "measurement window (simulated ms)");
  args.add_string("testbed", "paper_twonode",
                  "testbed scenario name (scenarios/<name>.json) or path");
  if (!args.parse(argc, argv)) return 1;

  const scenario::ScenarioSpec spec = bench::load_scenario(args.str("testbed"));
  const auto counts = args.int_list("instances");
  const auto horizon = sim::from_ms(args.real("ms"));
  const auto scenario = args.str("scenario");
  if (scenario == "both" || scenario == "mcbn") run_mcbn(spec, counts, horizon);
  if (scenario == "both" || scenario == "mcln") run_mcln(spec, counts, horizon);
  return 0;
}
