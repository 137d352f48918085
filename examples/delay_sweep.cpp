// Delay sweep: characterize any workload's sensitivity to the *mean*
// injected remote-memory delay, fractional microseconds allowed.
//
//   ./delay_sweep --workload=stream|bfs|redis [--delays-us=0.5,2,10]
//                 [--dist=lognormal] [--csv=sweep.csv]
//                 [--scenario=paper_twonode]
//
// The injector runs in distribution mode (--dist, default fixed) at each
// mean delay, an axis no bench sweeps; the paper's fixed-PERIOD axis is
// bench/stream_figures' and bench/app_figures'.  The testbed itself comes
// from a scenario file.
//
// Demonstrates the characterization API end to end: one fresh Session per
// delay fanned out across $TFSIM_JOBS workers (sim::SweepRunner),
// paper-style degradation reporting, CSV export.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "net/latency_dist.hpp"
#include "sim/config.hpp"
#include "sim/sweep.hpp"

using namespace tfsim;

namespace {

struct SweepPoint {
  std::string label;
  sim::Time elapsed = 0;
  double extra_metric = 0.0;  // bandwidth / ops depending on workload
  bool attached = true;       // false reproduces the Fig. 4 device-lost case
  std::string error;          // non-empty: validation failure (fatal)
};

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args("delay_sweep: workload sensitivity to mean injected delay");
  args.add_string("workload", "stream", "stream | bfs | redis");
  args.add_double_list("delays-us", "0.5,2,10",
                       "mean injected delays to sweep (comma-separated us, "
                       "fractions allowed)");
  args.add_string("dist", "fixed",
                  "delay distribution: fixed|uniform|exponential|lognormal|pareto");
  args.add_string("scenario", "paper_twonode",
                  "testbed scenario name (scenarios/<name>.json) or path");
  args.add_int("stream-elements", 2'000'000, "STREAM array elements");
  args.add_int("graph-scale", 16, "Graph500 scale");
  args.add_int("kv-requests", 100, "memtier requests per client");
  args.add_string("csv", "", "also write results to this CSV file");
  if (!args.parse(argc, argv)) return 1;

  const std::string workload = args.str("workload");
  if (workload != "stream" && workload != "bfs" && workload != "redis") {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 1;
  }
  const std::vector<double> delays = args.double_list("delays-us");
  if (delays.empty()) {
    std::fprintf(stderr, "--delays-us: give at least one delay\n");
    return 2;
  }
  for (const double d : delays) {
    if (!std::isfinite(d) || d < 0.0) {
      std::fprintf(stderr,
                   "--delays-us: %g is not a finite, non-negative delay\n", d);
      return 2;
    }
  }

  // Pre-generate shared inputs once, before the parallel fan-out.
  workloads::g500::Graph500Config gcfg;
  gcfg.gen.scale = static_cast<std::uint32_t>(args.integer("graph-scale"));
  workloads::g500::EdgeList edges;
  if (workload == "bfs") edges = workloads::g500::kronecker_generate(gcfg.gen);

  const scenario::ScenarioSpec spec =
      bench::load_scenario(args.str("scenario"));
  net::DistKind dist = net::DistKind::kFixed;
  try {
    dist = net::parse_dist_kind(args.str("dist"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "--dist: %s\n", e.what());
    return 2;
  }

  auto run_point = [&](double delay_us) {
    SweepPoint p;
    char label[32];
    std::snprintf(label, sizeof label, "%g us", delay_us);
    p.label = label;
    core::SessionConfig cfg;
    cfg.scenario = spec;
    cfg.scenario.injector.dist_kind = dist;
    cfg.scenario.injector.dist_mean_us = delay_us;
    core::Session session(cfg);
    if (!session.attached()) {
      p.attached = false;
      return p;
    }
    if (workload == "stream") {
      workloads::StreamConfig scfg;
      scfg.elements =
          static_cast<std::uint64_t>(args.integer("stream-elements"));
      const auto res = session.run_stream(scfg);
      p.elapsed = res.total_elapsed;
      p.extra_metric = res.best_bandwidth_gbps;
    } else if (workload == "bfs") {
      const auto job = session.run_bfs_job(gcfg, edges, 1);
      p.error = job.validation_error;
      p.elapsed = job.total();
    } else {  // redis
      workloads::kv::KvStoreConfig store_cfg;
      workloads::kv::MemtierConfig load_cfg;
      load_cfg.key_space = 50'000;
      load_cfg.requests_per_client =
          static_cast<std::uint64_t>(args.integer("kv-requests"));
      const auto res = session.run_memtier(store_cfg, load_cfg);
      p.elapsed = res.elapsed;
      p.extra_metric = res.ops_per_sec;
    }
    return p;
  };
  // One independent Session per delay: fan out across $TFSIM_JOBS workers
  // (serial when unset); results come back in input order either way.
  std::vector<SweepPoint> points = sim::SweepRunner().map(delays, run_point);

  for (auto it = points.begin(); it != points.end();) {
    if (!it->error.empty()) {
      std::fprintf(stderr, "BFS validation failed: %s\n", it->error.c_str());
      return 1;
    }
    if (!it->attached) {
      std::fprintf(stderr, "%s: attach failed (device lost)\n",
                   it->label.c_str());
      it = points.erase(it);
    } else {
      ++it;
    }
  }

  if (points.empty()) {
    std::fprintf(stderr, "no successful runs\n");
    return 1;
  }

  core::Table table("delay sweep: " + workload,
                    {"mean delay", "elapsed (ms)", "degradation vs first",
                     workload == "redis" ? "ops/sec" : "bandwidth (GB/s)"});
  for (const auto& p : points) {
    table.row({p.label, core::Table::num(sim::to_ms(p.elapsed), 2),
               core::Table::ratio(core::degradation_from_times(
                   p.elapsed, points.front().elapsed)),
               core::Table::num(p.extra_metric, 2)});
  }
  table.print();
  if (!args.str("csv").empty()) table.to_csv(args.str("csv"));
  return 0;
}
