// Figures 2 and 3: STREAM latency and bandwidth for varying delay injection.
//
// STREAM runs on the borrower (lender idle) while PERIOD sweeps the
// injector; one run per PERIOD feeds both figures.
//   Fig. 2: the paper observes 1.2-150 us across the sweep -- the
//     [0-90th]-percentile of production datacenter network latency -- with
//     a strong linear PERIOD-latency correlation (validated in §III-B; we
//     print the least-squares fit).
//   Fig. 3: consumed bandwidth drops rapidly with added delay while the
//     bandwidth-delay product stays roughly constant (~16.5 kB on the
//     paper's testbed): the injector throttles admission, it does not
//     shrink the outstanding-request window.
//
// Each PERIOD is an independent Session, so the sweep fans out across
// $TFSIM_JOBS workers; the tables/CSVs are identical for any worker count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"

using namespace tfsim;

namespace {

const std::vector<std::uint64_t> kPeriods = {1, 2, 5, 10, 20, 50, 100, 200, 400};

void print_fig2(const std::vector<std::uint64_t>& periods,
                const std::vector<workloads::StreamResult>& runs) {
  core::Table table("Figure 2: STREAM-measured latency vs injection PERIOD",
                    {"PERIOD", "latency (us)", "bandwidth (GB/s)"});
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    table.row({std::to_string(periods[i]),
               core::Table::num(runs[i].avg_latency_us, 2),
               core::Table::num(runs[i].best_bandwidth_gbps, 3)});
    xs.push_back(static_cast<double>(periods[i]));
    ys.push_back(runs[i].avg_latency_us);
  }
  table.print();
  table.to_csv(bench::csv_path("fig2_stream_latency.csv"));
  const auto fit = sim::linear_fit(xs, ys);
  std::printf("PERIOD-latency linear fit: latency_us = %.4f * PERIOD + %.4f",
              fit.slope, fit.intercept);
  if (std::isnan(fit.r2)) {
    std::printf(" (R^2 undefined: latency does not vary with PERIOD)\n");
  } else {
    std::printf(" (R^2 = %.5f; paper reports a strong linear correlation)\n",
                fit.r2);
  }
  std::printf("latency range across sweep: %.2f - %.2f us (paper: 1.2 - 150 us)\n",
              ys.empty() ? 0.0 : ys.front(), ys.empty() ? 0.0 : ys.back());
}

void print_fig3(const std::vector<std::uint64_t>& periods,
                const std::vector<workloads::StreamResult>& runs) {
  core::Table table(
      "Figure 3: STREAM bandwidth vs injection PERIOD (copy kernel)",
      {"PERIOD", "bandwidth (GB/s)", "latency (us)", "BDP (kB)"});
  double bdp_min = 1e30, bdp_max = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    // Pair the kernel's own bandwidth and latency (copy is the canonical
    // STREAM line in the paper's plot).
    const auto& k = runs[i].kernel("copy");
    const double bdp = core::bdp_kb(k.bandwidth_gbps, k.avg_latency_us);
    table.row({std::to_string(periods[i]),
               core::Table::num(k.bandwidth_gbps, 3),
               core::Table::num(k.avg_latency_us, 2),
               core::Table::num(bdp, 1)});
    if (periods[i] > 1) {  // saturated regime
      bdp_min = std::min(bdp_min, bdp);
      bdp_max = std::max(bdp_max, bdp);
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
      "Figures 2 and 3: STREAM latency and bandwidth vs injection PERIOD");
  args.add_string("scenario", "paper_twonode",
                  "scenario name (scenarios/<name>.json) or path");
  args.add_int_list("periods", "", "PERIOD axis override (comma-separated)");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  const auto periods = bench::axis_values<std::uint64_t>(
      args.int_list("periods"), spec.sweep.periods, kPeriods);

  std::vector<scenario::ScenarioSpec> points;
  for (const auto p : periods) points.push_back(bench::at_period(spec, p));
  const auto runs = bench::run_sweep(
      "stream_figures", points, [](const scenario::ScenarioSpec& s) {
        core::SessionConfig cfg;
        cfg.scenario = s;
        core::Session session(cfg);
        return session.run_stream(bench::stream_config());
      });
  print_fig2(periods, runs);
  print_fig3(periods, runs);
  spec.sweep.periods = periods;
  bench::echo_scenario(spec, "fig2_stream_latency.csv");
  bench::echo_scenario(spec, "fig3_stream_bandwidth.csv");
  return 0;
}
