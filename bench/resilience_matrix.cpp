// Resilience under faults: the (PERIOD x loss x flap) health surface.
//
// The paper's Fig. 4 varies only the injected delay; real fabrics also lose
// frames, corrupt payloads, and flap links.  This bench sweeps the full
// fault matrix over a scenario testbed: each point builds a fresh cluster
// with the seeded fault layer active, drives a closed-loop access probe
// through the borrower NIC, and classifies the outcome on the widened
// health spectrum (healthy / recovering / degraded / detached /
// device-lost).  With the DL replay window in place, loss and corruption
// cost latency or surface as counted abandonments -- never hung
// transactions; every point asserts the credit/tag books balance.
//
// Points are independent, so the matrix fans out across $TFSIM_JOBS;
// results are byte-identical for any worker count.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/resilience.hpp"
#include "sim/config.hpp"

using namespace tfsim;

namespace {

/// Built-in flap schedules (index = the matrix's flap axis):
///   0: pristine -- no flaps;
///   1: one hard-down window (every frame sent into it is dropped);
///   2: a longer degraded window at a quarter of the link bandwidth.
std::vector<std::vector<net::FlapSpec>> flap_schedules() {
  return {
      {},
      {net::FlapSpec{sim::from_us(200.0), sim::from_us(100.0), 0.0}},
      {net::FlapSpec{sim::from_us(200.0), sim::from_us(400.0), 0.25}},
  };
}

const char* flap_name(std::uint32_t idx) {
  switch (idx) {
    case 0: return "none";
    case 1: return "down-100us";
    case 2: return "degraded-400us";
  }
  return "?";
}

void print_table(const std::vector<core::FaultProbe>& probes) {
  core::Table table(
      "Resilience matrix: health vs (PERIOD, loss rate, flap schedule)",
      {"PERIOD", "loss", "flap", "health", "latency (us)", "retries",
       "abandoned", "lost", "crc", "detached"});
  for (const auto& p : probes) {
    char loss[32];
    std::snprintf(loss, sizeof loss, "%g", p.point.loss_rate);
    table.row({std::to_string(p.point.period), loss,
               flap_name(p.point.flap_schedule), core::to_string(p.health),
               p.attached ? core::Table::num(p.avg_latency_us, 2) : "-",
               std::to_string(p.retries), std::to_string(p.abandoned),
               std::to_string(p.frames_lost), std::to_string(p.crc_drops),
               std::to_string(p.detached_lenders)});
  }
  table.print();
  table.to_csv(bench::csv_path("resilience_matrix.csv"));
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Resilience matrix: health classification under (PERIOD x loss x flap)");
  args.add_string("scenario", "paper_twonode",
                  "scenario name (scenarios/<name>.json) or path");
  args.add_int_list("periods", "", "PERIOD axis override (comma-separated)");
  args.add_double_list("loss", "", "loss-rate axis override (comma-separated)");
  args.add_int("accesses", 2000, "closed-loop probe accesses per point");
  args.add_int("seed", 1, "fault-stream seed");
  args.add_flag("smoke", "tiny matrix for CI (fast, still hits every class)");
  if (!args.parse(argc, argv)) return 1;

  core::FaultMatrixOptions opts;
  opts.scenario = bench::load_scenario(args.str("scenario"));
  opts.flap_schedules = flap_schedules();
  opts.seed = static_cast<std::uint64_t>(args.integer("seed"));
  opts.accesses = static_cast<std::uint32_t>(args.integer("accesses"));
  opts.periods = bench::axis_values<std::uint64_t>(
      args.int_list("periods"), opts.scenario.sweep.periods, opts.periods);
  if (!args.double_list("loss").empty()) {
    opts.loss_rates = args.double_list("loss");
  }
  if (args.flag("smoke")) {
    opts.periods = {1, 100};
    opts.loss_rates = {0.0, 1e-2};
    opts.accesses = 400;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto probes = core::assess_fault_matrix(opts);
  const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  std::printf("[resilience_matrix] %zu points, wall %lld ms\n", probes.size(),
              static_cast<long long>(wall.count()));

  print_table(probes);
  // Every probe already passed check_quiesced(); restate the headline
  // invariant next to the table.
  std::uint64_t failed_attempts = 0, retries = 0, abandoned = 0;
  for (const auto& p : probes) {
    failed_attempts += p.frames_lost + p.crc_drops;
    retries += p.retries;
    abandoned += p.abandoned;
  }
  std::printf("replay ledger: %llu failed attempts = %llu retries + %llu "
              "abandoned (%s)\n",
              static_cast<unsigned long long>(failed_attempts),
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(abandoned),
              failed_attempts == retries + abandoned ? "balanced"
                                                     : "IMBALANCED");
  bench::echo_scenario(opts.scenario, "resilience_matrix.csv");
  return failed_attempts == retries + abandoned ? 0 : 1;
}
