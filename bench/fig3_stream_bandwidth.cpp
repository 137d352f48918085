// Figure 3: bandwidth measured by STREAM for varying delay injection.
//
// Consumed bandwidth drops rapidly with added delay while the
// bandwidth-delay product stays roughly constant (~16.5 kB on the paper's
// testbed): the injector throttles admission, it does not shrink the
// outstanding-request window.
//
// Each PERIOD is an independent Session, so the sweep fans out across
// $TFSIM_JOBS workers; the table/CSV are identical for any worker count.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "sim/config.hpp"

using namespace tfsim;

namespace {

const std::vector<std::uint64_t> kPeriods = {1, 2, 5, 10, 20, 50, 100, 200, 400};

struct Row {
  std::uint64_t period = 0;
  double bandwidth_gbps = 0.0;
  double latency_us = 0.0;
  double bdp_kb = 0.0;
};

Row run_point(const scenario::ScenarioSpec& spec, std::uint64_t period) {
  core::SessionConfig cfg;
  cfg.scenario = spec;
  cfg.scenario.injector.period = period;
  core::Session session(cfg);
  const auto res = session.run_stream(bench::stream_config());
  // Pair each kernel's own bandwidth and latency (copy is the canonical
  // STREAM line in the paper's plot).
  const auto& k = res.kernel("copy");
  return Row{period, k.bandwidth_gbps, k.avg_latency_us,
             core::bdp_kb(k.bandwidth_gbps, k.avg_latency_us)};
}

void print_table(const std::vector<Row>& rows) {
  core::Table table(
      "Figure 3: STREAM bandwidth vs injection PERIOD (copy kernel)",
      {"PERIOD", "bandwidth (GB/s)", "latency (us)", "BDP (kB)"});
  double bdp_min = 1e30, bdp_max = 0;
  for (const auto& r : rows) {
    table.row({std::to_string(r.period), core::Table::num(r.bandwidth_gbps, 3),
               core::Table::num(r.latency_us, 2), core::Table::num(r.bdp_kb, 1)});
    if (r.period > 1) {  // saturated regime
      bdp_min = std::min(bdp_min, r.bdp_kb);
      bdp_max = std::max(bdp_max, r.bdp_kb);
    }
  }
  table.print();
  table.to_csv(bench::csv_path("fig3_stream_bandwidth.csv"));
  std::printf("BDP across saturated sweep: %.1f - %.1f kB"
              " (paper: roughly constant at ~16.5 kB)\n",
              bdp_min, bdp_max);
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Figure 3: STREAM bandwidth vs injection PERIOD (copy kernel)");
  args.add_string("scenario", "paper_twonode",
                  "scenario name (scenarios/<name>.json) or path");
  args.add_string("periods", "", "PERIOD axis override (comma-separated)");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  const auto periods = bench::axis_values<std::uint64_t>(
      args.int_list("periods"), spec.sweep.periods, kPeriods);

  const auto rows = bench::run_sweep(
      "fig3_stream_bandwidth", periods,
      [&](std::uint64_t p) { return run_point(spec, p); });
  print_table(rows);
  spec.sweep.periods = periods;
  bench::echo_scenario(spec, "fig3_stream_bandwidth.csv");
  return 0;
}
