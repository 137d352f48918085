// Fabric contention: the fig6/7 cliff on a rack-scale leaf/spine fabric.
//
// B borrower-lender pairs exchange closed-loop cache-line request/response
// frames across a two-tier leaf/spine fabric (scenarios/leafspine_rack128
// by default); partners are matched onto *different* leaves, so every
// access crosses the spine tier and contends for the striped uplinks.  The
// same traffic replayed over a dumbbell (two switches, one shared trunk of
// the same per-link capacity) is the reference curve: aggregate bisection
// is S uplinks per leaf instead of one trunk, so the leaf/spine RTT cliff
// sits further out by roughly the oversubscription ratio.
//
// Reported per point: completed round trips, RTT mean/p50/p99, the hottest
// switch egress queue (peak and mean occupancy at admission -- where the
// cliff forms is visible as which port saturates), tail drops, and an
// FNV-1a digest of every per-host and per-port counter.  Frames are
// forwarded hop by hop with post_routed on per-node calendars; the golden
// digest table (tests/golden/digests.txt) pins the CI smoke points.
//
// Sizing: TFSIM_FABRIC_US (default 200) bounds the measured window so the
// CI smoke run stays cheap; the borrower axis comes from the scenario's
// sweep.borrowers ({16..256} in leafspine_rack128) or --borrowers.
// Results land in fabric_contention.csv plus BENCH_fabric.json (the CI
// artifact), alongside the resolved scenario echo.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "fabric_point.hpp"
#include "scenario/scenario.hpp"
#include "sim/config.hpp"
#include "sim/units.hpp"

using namespace tfsim;
using bench::PointResult;

namespace {

const std::vector<std::uint32_t> kDefaultBorrowers = {16, 32, 64, 128, 256};

void write_bench_json(const std::string& path, const std::string& scenario,
                      double window_us,
                      const std::vector<std::uint32_t>& axis,
                      const std::vector<std::pair<PointResult, PointResult>>&
                          rows) {
  std::ofstream out(path);
  out << "{\n  \"context\": {\"bench\": \"fabric_contention\", \"scenario\": \""
      << scenario << "\", \"window_us\": " << window_us
      << ", \"pdes_threads\": 1},\n  \"benchmarks\": [\n";
  const auto emit = [&out](const char* fabric, std::uint32_t b,
                           const PointResult& r, bool last) {
    out << "    {\"name\": \"fabric/" << fabric << "/B=" << b
        << "\", \"completed\": " << r.completed
        << ", \"rtt_mean_us\": " << r.rtt_mean_us
        << ", \"rtt_p50_us\": " << r.rtt_p50_us
        << ", \"rtt_p99_us\": " << r.rtt_p99_us
        << ", \"peak_queue_bytes\": " << r.peak_queue_bytes
        << ", \"mean_queue_bytes\": " << r.mean_queue_bytes
        << ", \"switch_drops\": " << r.switch_drops << ", \"digest\": \""
        << r.digest << "\"}" << (last ? "\n" : ",\n");
  };
  for (std::size_t i = 0; i < axis.size(); ++i) {
    emit("leafspine", axis[i], rows[i].first, false);
    emit("dumbbell", axis[i], rows[i].second, i + 1 == axis.size());
  }
  out << "  ]\n}\n";
  std::printf("bench JSON -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Fabric contention: leaf/spine RTT cliff vs the dumbbell trunk");
  args.add_string("scenario", "leafspine_rack128",
                  "scenario name (scenarios/<name>.json) or path");
  args.add_int_list("borrowers", "",
                    "borrower-pair axis override (comma-separated)");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  if (spec.topology.kind != scenario::TopologyKind::kLeafSpine) {
    std::fprintf(stderr,
                 "error: scenario \"%s\" declares a %s topology; "
                 "fabric_contention needs leaf_spine\n",
                 spec.name.c_str(), to_string(spec.topology.kind).c_str());
    return 2;
  }
  const auto axis = bench::axis_values<std::uint32_t>(
      args.int_list("borrowers"), spec.sweep.borrowers, kDefaultBorrowers);
  const double window_us =
      static_cast<double>(bench::env_u64("TFSIM_FABRIC_US", 200));
  const sim::Time window = sim::from_us(window_us);

  const auto rows = bench::run_sweep(
      "fabric_contention", axis, [&](std::uint32_t b) {
        return std::make_pair(
            bench::run_point(spec.topology,
                             scenario::TopologyKind::kLeafSpine, b, window),
            bench::run_point(spec.topology,
                             scenario::TopologyKind::kDumbbell, b, window));
      });

  core::Table table(
      "Fabric contention: " + std::to_string(spec.topology.leaves) + "x" +
          std::to_string(spec.topology.spines) +
          " leaf/spine vs dumbbell trunk (window " +
          core::Table::num(window_us, 0) + " us)",
      {"borrower pairs", "LS RTT p50/p99 (us)", "LS peak queue (KiB)",
       "LS drops", "DB RTT p50/p99 (us)", "DB peak queue (KiB)", "DB drops",
       "LS digest"});
  for (std::size_t i = 0; i < axis.size(); ++i) {
    const PointResult& ls = rows[i].first;
    const PointResult& db = rows[i].second;
    table.row({std::to_string(axis[i]),
               core::Table::num(ls.rtt_p50_us, 3) + " / " +
                   core::Table::num(ls.rtt_p99_us, 3),
               core::Table::num(ls.peak_queue_bytes / 1024.0, 1),
               std::to_string(ls.switch_drops),
               core::Table::num(db.rtt_p50_us, 3) + " / " +
                   core::Table::num(db.rtt_p99_us, 3),
               core::Table::num(db.peak_queue_bytes / 1024.0, 1),
               std::to_string(db.switch_drops), std::to_string(ls.digest)});
  }
  table.print();
  table.to_csv(bench::csv_path("fabric_contention.csv"));
  std::puts(
      "Paper shape: the dumbbell trunk saturates first (RTT cliff + queue "
      "growth at low B); ECMP striping across the spine uplinks moves the "
      "cliff out by ~the oversubscription ratio.");

  write_bench_json(bench::csv_path("BENCH_fabric.json"), spec.name, window_us,
                   axis, rows);
  spec.sweep.borrowers = axis;
  bench::echo_scenario(spec, "fabric_contention.csv");
  return 0;
}
