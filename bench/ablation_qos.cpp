// Ablation: the QoS mechanisms the paper's insight #2 calls for.
//
// "Resource allocation mechanisms need to enable Quality-of-Service
// features to support workloads that are sensitive to memory access latency
// increase."  Here a latency-sensitive probe (a pointer-chase-like flow
// with 4 outstanding lines) shares the borrower NIC with bulk STREAM
// traffic that saturates the window and the link.  Three configurations:
//
//   off        probe is ordinary bulk traffic
//   net-prio   probe packets bypass bulk backlog on every network hop
//   net+mshr   additionally, 16 window slots are reserved for the
//              latency class (MSHR partitioning)
//
// Each mode is an independent Cluster, so the sweep fans out across
// $TFSIM_JOBS workers; the table/CSV are identical for any count.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "node/cluster.hpp"
#include "sim/config.hpp"
#include "workloads/stream/stream_flow.hpp"

using namespace tfsim;

namespace {

struct QosResult {
  std::string mode;
  double probe_latency_us;
  double probe_p_bw_gbps;
  double bulk_aggregate_gbps;
};

const std::vector<std::string> kModes = {"off", "net-prio", "net+mshr"};

QosResult run_mode(const std::string& mode) {
  scenario::ScenarioSpec spec = scenario::paper_two_node();
  if (mode == "net+mshr") {
    spec.nodes[0].nic.latency_reserved_entries = 16;  // the borrower
  }
  node::Cluster tb(spec);
  tb.attach_remote();
  const sim::Time horizon = sim::from_ms(20.0);

  // Bulk background: two saturating flows.
  std::vector<std::unique_ptr<workloads::RemoteStreamFlow>> bulk;
  for (int i = 0; i < 2; ++i) {
    workloads::FlowConfig cfg;
    cfg.concurrency = 128;
    cfg.base = tb.remote_base() + static_cast<std::uint64_t>(i) * 512 * sim::kMiB;
    cfg.span_bytes = 512 * sim::kMiB;
    cfg.stop_at = horizon;
    cfg.priority = sim::Priority::kBulk;
    bulk.push_back(std::make_unique<workloads::RemoteStreamFlow>(
        tb.engine(), tb.borrower().nic(), cfg));
  }

  // Latency-sensitive probe.
  workloads::FlowConfig pcfg;
  pcfg.concurrency = 4;
  pcfg.base = tb.remote_base() + 2 * 512 * sim::kMiB;
  pcfg.span_bytes = 64 * sim::kMiB;
  pcfg.stop_at = horizon;
  pcfg.priority =
      mode == "off" ? sim::Priority::kBulk : sim::Priority::kLatency;
  workloads::RemoteStreamFlow probe(tb.engine(), tb.borrower().nic(), pcfg);

  for (auto& f : bulk) f->start();
  probe.start();
  tb.engine().run();

  QosResult r;
  r.mode = mode;
  r.probe_latency_us = probe.stats().latency_us.mean();
  r.probe_p_bw_gbps = probe.stats().bandwidth_gbps(horizon);
  r.bulk_aggregate_gbps = 0;
  for (auto& f : bulk) {
    r.bulk_aggregate_gbps += f->stats().bandwidth_gbps(horizon);
  }
  return r;
}

void print_table(const std::vector<QosResult>& rows) {
  core::Table table(
      "Ablation: QoS for a latency-sensitive flow under bulk saturation",
      {"QoS mode", "probe latency (us)", "probe BW (GB/s)",
       "bulk aggregate (GB/s)"});
  for (const auto& r : rows) {
    table.row({r.mode, core::Table::num(r.probe_latency_us, 2),
               core::Table::num(r.probe_p_bw_gbps, 3),
               core::Table::num(r.bulk_aggregate_gbps, 3)});
  }
  table.print();
  table.to_csv(bench::csv_path("ablation_qos.csv"));
  std::puts("Network prioritization alone helps; reserving MSHR slots"
            " recovers near-unloaded latency for the sensitive flow while"
            " bulk throughput barely moves -- the QoS feature the paper"
            " argues future resource control must provide.");
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Ablation: QoS for a latency-sensitive flow under bulk saturation");
  if (!args.parse(argc, argv)) return 1;

  print_table(bench::run_sweep("ablation_qos", kModes, run_mode));
  return 0;
}
