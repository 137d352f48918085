// Delay-injection sweep: characterize any workload's sensitivity to remote
// memory latency, with fixed-PERIOD or distribution-driven injection.
//
//   ./delay_sweep --workload=stream|bfs|redis [--periods=1,8,64,512]
//                 [--dist=lognormal --mean-us=5] [--csv=sweep.csv]
//                 [--delays-us=0.5,2,10] [--scenario=paper_twonode]
//
// Two sweep modes: --periods sweeps the fixed-PERIOD injector (the paper's
// methodology); --delays-us sweeps the *mean injected delay* directly in
// distribution mode (--dist, default fixed) -- fractional microseconds
// allowed.  The testbed itself comes from a scenario file.
//
// Demonstrates the characterization API end to end: one fresh Session per
// configuration fanned out across $TFSIM_JOBS workers (sim::SweepRunner),
// paper-style degradation reporting, CSV export.
#include <cstdio>
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
  double extra_metric = 0.0;  // bandwidth / ops / teps depending on workload
  bool attached = true;       // false reproduces the Fig. 4 device-lost case
  std::string error;          // non-empty: validation failure (fatal)
};

/// One sweep cell: either a fixed-PERIOD point or a distribution-mode
/// point at a given mean delay (delay_us >= 0 selects the latter).
struct SweepCfg {
  std::int64_t period = 1;
  double delay_us = -1.0;
  std::string label;
};

core::SessionConfig make_session_cfg(const sim::ArgParser& args,
                                     const scenario::ScenarioSpec& spec,
                                     const SweepCfg& point) {
  core::SessionConfig cfg;
  cfg.scenario = spec;
  auto& inj = cfg.scenario.injector;
  if (point.delay_us >= 0.0) {
    const std::string dist = args.str("dist");
    inj.dist_kind = net::parse_dist_kind(dist.empty() ? "fixed" : dist);
    inj.dist_mean_us = point.delay_us;
  } else {
    inj.period = static_cast<std::uint64_t>(point.period);
    if (!args.str("dist").empty()) {
      inj.dist_kind = net::parse_dist_kind(args.str("dist"));
      inj.dist_mean_us = args.real("mean-us");
    }
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args("delay_sweep: workload sensitivity to injected delay");
  args.add_string("workload", "stream", "stream | bfs | redis");
  args.add_string("periods", "1,8,64,512", "injector PERIOD sweep");
  args.add_string("dist", "", "distribution mode: fixed|uniform|exponential|lognormal|pareto");
  args.add_double("mean-us", 2.0, "mean injected delay (distribution mode)");
  args.add_string("delays-us", "",
                  "sweep mean injected delay instead of PERIOD "
                  "(comma-separated us, fractions allowed)");
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

  // Pre-generate shared inputs once, before the parallel fan-out.
  workloads::g500::Graph500Config gcfg;
  gcfg.gen.scale = static_cast<std::uint32_t>(args.integer("graph-scale"));
  workloads::g500::EdgeList edges;
  if (workload == "bfs") edges = workloads::g500::kronecker_generate(gcfg.gen);

  const scenario::ScenarioSpec spec =
      bench::load_scenario(args.str("scenario"));

  // Sweep axis: mean injected delays (distribution mode) when --delays-us
  // is given, injector PERIODs otherwise.
  std::vector<SweepCfg> cells;
  if (const auto delays = args.double_list("delays-us"); !delays.empty()) {
    for (const double d : delays) {
      char label[32];
      std::snprintf(label, sizeof label, "%g us", d);
      cells.push_back({1, d, label});
    }
  } else {
    for (const auto period : args.int_list("periods")) {
      cells.push_back({period, -1.0, std::to_string(period)});
    }
  }
  auto run_point = [&](const SweepCfg& cell) {
    SweepPoint p;
    p.label = cell.label;
    core::Session session(make_session_cfg(args, spec, cell));
    if (!session.attached()) {
      p.attached = false;
      return p;
    }
    if (workload == "stream") {
      workloads::StreamConfig cfg;
      cfg.elements = static_cast<std::uint64_t>(args.integer("stream-elements"));
      const auto res = session.run_stream(cfg);
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
  // One independent Session per cell: fan out across $TFSIM_JOBS workers
  // (serial when unset); results come back in input order either way.
  std::vector<SweepPoint> points = sim::SweepRunner().map(cells, run_point);

  for (auto it = points.begin(); it != points.end();) {
    if (!it->error.empty()) {
      std::fprintf(stderr, "BFS validation failed: %s\n", it->error.c_str());
      return 1;
    }
    if (!it->attached) {
      std::fprintf(stderr, "PERIOD %s: attach failed (device lost)\n",
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

  const bool delay_mode = !args.double_list("delays-us").empty();
  core::Table table("delay sweep: " + workload,
                    {delay_mode ? "mean delay" : "PERIOD", "elapsed (ms)",
                     "degradation vs first",
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
