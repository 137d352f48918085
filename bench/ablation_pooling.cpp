// Ablation (paper §V): memory borrowing vs memory pooling.
//
// Borrowing: each borrower reaches a full lender *server* whose memory bus
// (~140 GB/s) dwarfs the network -- lender-side contention is invisible
// (Fig. 7).  Pooling: borrowers share a CPU-less memory pool whose
// controller has DDR-channel-class bandwidth; as borrowers multiply, the
// bottleneck shifts from each borrower's network link to the pool itself,
// exactly the shift the paper predicts would change its §IV-E conclusions.
//
// Both shapes are declarative scenarios built through node::Cluster: N
// borrowers, one memory target, only the target's bus bandwidth differs.
// Each borrower count is an independent point, so the sweep fans out
// across $TFSIM_JOBS workers; the table/CSV are identical for any count.
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

const std::vector<int> kBorrowerCounts = {1, 2, 4, 8};

struct Row {
  int borrowers;
  double borrowing_per_instance_gbps;
  double pooling_per_instance_gbps;
};

/// N borrowers, one memory target; `target_gbyte` distinguishes a lender
/// server's bus (borrowing) from a CPU-less pool controller (pooling).
scenario::ScenarioSpec target_scenario(int n, double target_gbyte) {
  scenario::ScenarioSpec spec;
  spec.name = "ablation-pooling";
  scenario::NodeDecl borrower;
  borrower.name = "borrower";
  borrower.role = scenario::Role::kBorrower;
  borrower.with_nic = true;
  borrower.count = static_cast<std::uint32_t>(n);
  scenario::NodeDecl target;
  target.name = "memory-target";
  target.role = scenario::Role::kLender;
  target.with_nic = false;
  target.dram.bus_bandwidth = sim::Bandwidth::from_gbyte(target_gbyte);
  spec.nodes = {borrower, target};
  scenario::ReservationSpec res;
  res.size_gib = 1;  // per-borrower slice of the target
  res.name = "pool-slice";
  spec.reservations.push_back(res);
  return spec;
}

double run_scenario(int n, double target_gbyte) {
  node::Cluster cluster(target_scenario(n, target_gbyte));
  cluster.attach_remote();
  const sim::Time measure_end = sim::from_ms(20.0);

  std::vector<std::unique_ptr<workloads::RemoteStreamFlow>> flows;
  for (std::size_t i = 0; i < cluster.num_borrowers(); ++i) {
    workloads::FlowConfig fcfg;
    fcfg.concurrency = 32;
    fcfg.base = cluster.remote_base(i);
    fcfg.span_bytes = 512 * sim::kMiB;
    fcfg.stop_at = measure_end;
    flows.push_back(std::make_unique<workloads::RemoteStreamFlow>(
        cluster.engine(), cluster.borrower(i).nic(), fcfg));
  }

  for (auto& f : flows) f->start();
  cluster.engine().run();

  double total = 0.0;
  for (auto& f : flows) {
    total += f->stats().bandwidth_gbps(measure_end);
  }
  return total / n;
}

void print_table(const std::vector<Row>& rows) {
  core::Table table(
      "Ablation: borrowing (140 GB/s lender bus) vs pooling (16 GB/s pool)",
      {"borrowers", "borrowing: per-instance GB/s", "pooling: per-instance GB/s"});
  for (const auto& r : rows) {
    table.row({std::to_string(r.borrowers),
               core::Table::num(r.borrowing_per_instance_gbps, 3),
               core::Table::num(r.pooling_per_instance_gbps, 3)});
  }
  table.print();
  table.to_csv(bench::csv_path("ablation_pooling.csv"));
  std::puts("Borrowing stays network-bound (flat per-instance bandwidth);"
            " pooling collapses once aggregate demand exceeds the pool"
            " controller -- the bottleneck shift of §V.");
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Ablation: memory borrowing vs a CPU-less memory pool as borrowers "
      "multiply");
  if (!args.parse(argc, argv)) return 1;

  const auto rows =
      bench::run_sweep("ablation_pooling", kBorrowerCounts, [](int n) {
        // Borrowing: lender server bus, 140 GB/s.  Pooling: CPU-less pool
        // controller, ~one DDR4 channel pair.
        return Row{n, run_scenario(n, 140.0), run_scenario(n, 16.0)};
      });
  print_table(rows);
  return 0;
}
