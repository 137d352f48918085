// Serving SLO bench: a Redis-style memory tier riding through a lender
// failure under open-loop diurnal load.
//
// The scenario (scenarios/serving_diurnal by default) puts two tenants --
// a latency-sensitive frontend (QoS weight 3) and a batch tier (weight 1)
// -- on an 8x4 leaf/spine rack with two lenders.  Arrivals follow a
// diurnal rate curve; at the peak, faults.kill_lender takes lender0 down
// and every source whose primary was lender0 walks its precomputed
// failover chain onto lender1, where capacity is below combined peak
// offered load and the credit QoS gate arbitrates 3:1 between the tenants.
//
// Reported per SLO window: completed/shed/rejected/failed counts and
// p50/p99/p999 completed-request latency against the scenario's "slo"
// targets.  The headline acceptance is that p99 stays bounded through the
// kill: requests in flight to the dead lender time out and fail over, but
// the windowed tail recovers within a few windows instead of diverging.
//
// The digest covers every observable of the report; the golden digest
// table (tests/golden/digests.txt) pins it for the CI smoke horizon.
//
// Sizing: TFSIM_SERVING_US overrides the arrival horizon (and compresses
// the diurnal period + kill time with it) so the CI smoke stays cheap.
// Results land in serving_slo.csv plus BENCH_serving.json (the CI
// artifact), alongside the resolved scenario echo.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/serving.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/config.hpp"
#include "sim/units.hpp"

using namespace tfsim;

namespace {

void write_bench_json(const std::string& path,
                      const scenario::ScenarioSpec& spec,
                      const core::ServingReport& r) {
  std::ofstream out(path);
  out << "{\n  \"context\": {\"bench\": \"serving_slo\", \"scenario\": \""
      << spec.name << "\", \"duration_us\": " << spec.traffic.duration_us
      << ", \"pdes_threads\": " << spec.pdes.threads << ", \"digest\": \""
      << r.digest
      << "\"},\n  \"benchmarks\": [\n";
  out << "    {\"name\": \"serving/totals\", \"offered\": " << r.totals.offered
      << ", \"completed\": " << r.totals.completed
      << ", \"shed\": " << r.totals.shed
      << ", \"rejected\": " << r.totals.rejected
      << ", \"failed\": " << r.totals.failed
      << ", \"failovers\": " << r.failovers
      << ", \"windows_met\": " << r.windows_met
      << ", \"windows\": " << r.windows.size()
      << ", \"p50_us\": " << r.overall.p50()
      << ", \"p99_us\": " << r.overall.p99()
      << ", \"p999_us\": " << r.overall.p999() << "},\n";
  for (const auto& t : r.tenants) {
    out << "    {\"name\": \"serving/tenant/" << t.name
        << "\", \"weight\": " << t.weight
        << ", \"offered\": " << t.totals.offered
        << ", \"completed\": " << t.totals.completed
        << ", \"shed\": " << t.totals.shed
        << ", \"rejected\": " << t.totals.rejected
        << ", \"failed\": " << t.totals.failed
        << ", \"failovers\": " << t.failovers << "},\n";
  }
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    const core::WindowStats& w = r.windows[i];
    out << "    {\"name\": \"serving/window/" << sim::to_us(w.start)
        << "\", \"completed\": " << w.completed << ", \"shed\": " << w.shed
        << ", \"rejected\": " << w.rejected << ", \"failed\": " << w.failed
        << ", \"p50_us\": " << w.p50_us << ", \"p99_us\": " << w.p99_us
        << ", \"p999_us\": " << w.p999_us << ", \"met\": " << (w.met ? 1 : 0)
        << "}" << (i + 1 == r.windows.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  std::printf("bench JSON -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Serving SLO: open-loop diurnal tier riding through a lender kill");
  args.add_string("scenario", "serving_diurnal",
                  "scenario name (scenarios/<name>.json) or path");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  if (!spec.traffic.enabled()) {
    std::fprintf(stderr,
                 "error: scenario \"%s\" has no traffic block; serving_slo "
                 "needs open-loop arrivals\n",
                 spec.name.c_str());
    return 2;
  }

  if (const std::uint64_t us = bench::env_u64("TFSIM_SERVING_US", 0);
      us > 0) {
    bench::compress_serving(spec, static_cast<double>(us));
  }

  node::Cluster cluster(spec);
  const core::ServingReport r = core::run_serving(cluster);

  core::Table table(
      "Serving SLO: " + spec.name + " (" +
          std::to_string(spec.expanded_node_count()) + " nodes, targets p50 " +
          core::Table::num(r.targets.p50_us, 0) + " / p99 " +
          core::Table::num(r.targets.p99_us, 0) + " / p999 " +
          core::Table::num(r.targets.p999_us, 0) + " us)",
      {"window (us)", "completed", "shed", "rejected", "failed", "p50 (us)",
       "p99 (us)", "p999 (us)", "SLO"});
  for (const core::WindowStats& w : r.windows) {
    table.row({core::Table::num(sim::to_us(w.start), 0),
               std::to_string(w.completed), std::to_string(w.shed),
               std::to_string(w.rejected), std::to_string(w.failed),
               core::Table::num(w.p50_us, 2), core::Table::num(w.p99_us, 2),
               core::Table::num(w.p999_us, 2), w.met ? "met" : "MISS"});
  }
  table.print();
  table.to_csv(bench::csv_path("serving_slo.csv"));

  std::printf("totals: offered %llu, completed %llu, shed %llu, rejected "
              "%llu, failed %llu; %llu failover(s); %llu/%zu windows met\n",
              static_cast<unsigned long long>(r.totals.offered),
              static_cast<unsigned long long>(r.totals.completed),
              static_cast<unsigned long long>(r.totals.shed),
              static_cast<unsigned long long>(r.totals.rejected),
              static_cast<unsigned long long>(r.totals.failed),
              static_cast<unsigned long long>(r.failovers),
              static_cast<unsigned long long>(r.windows_met),
              r.windows.size());
  for (const auto& t : r.tenants) {
    std::printf("tenant %-10s weight %u: offered %llu, completed %llu, "
                "rejected %llu, failed %llu, failovers %llu\n",
                t.name.c_str(), t.weight,
                static_cast<unsigned long long>(t.totals.offered),
                static_cast<unsigned long long>(t.totals.completed),
                static_cast<unsigned long long>(t.totals.rejected),
                static_cast<unsigned long long>(t.totals.failed),
                static_cast<unsigned long long>(t.failovers));
  }

  if (!r.balanced) {
    std::fprintf(stderr, "serving_slo: ledger unbalanced -- offered != "
                         "completed + shed + rejected + failed\n");
    return 1;
  }
  if (!spec.faults.kill_lender.empty() && r.failovers == 0) {
    std::fprintf(stderr, "serving_slo: %s was killed mid-run but no source "
                         "failed over\n",
                 spec.faults.kill_lender.c_str());
    return 1;
  }
  std::puts(
      "Paper shape: the kill at the diurnal peak fails the frontend over "
      "onto the surviving lender; the QoS gate holds the weight ratio and "
      "windowed p99 recovers within a few windows instead of diverging.");

  write_bench_json(bench::csv_path("BENCH_serving.json"), spec, r);
  bench::echo_scenario(spec, "serving_slo.csv");
  return 0;
}
