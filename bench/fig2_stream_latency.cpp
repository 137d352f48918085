// Figure 2: latency measured by STREAM for varying delay injection.
//
// STREAM runs on the borrower (lender idle) while PERIOD sweeps the
// injector.  The paper observes 1.2-150 us across the sweep -- the
// [0-90th]-percentile of production datacenter network latency -- with a
// strong linear PERIOD-latency correlation (validated in §III-B; we print
// the least-squares fit).
//
// Each PERIOD is an independent Session, so the sweep fans out across
// $TFSIM_JOBS workers; the table/CSV are identical for any worker count.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"

using namespace tfsim;

namespace {

const std::vector<std::uint64_t> kPeriods = {1, 2, 5, 10, 20, 50, 100, 200, 400};

struct Row {
  std::uint64_t period = 0;
  double latency_us = 0.0;
  double bandwidth_gbps = 0.0;
};

Row run_point(const scenario::ScenarioSpec& spec, std::uint64_t period) {
  core::SessionConfig cfg;
  cfg.scenario = spec;
  cfg.scenario.injector.period = period;
  core::Session session(cfg);
  const auto res = session.run_stream(bench::stream_config());
  return Row{period, res.avg_latency_us, res.best_bandwidth_gbps};
}

void print_table(const std::vector<Row>& rows) {
  core::Table table("Figure 2: STREAM-measured latency vs injection PERIOD",
                    {"PERIOD", "latency (us)", "bandwidth (GB/s)"});
  std::vector<double> xs, ys;
  for (const auto& r : rows) {
    table.row({std::to_string(r.period), core::Table::num(r.latency_us, 2),
               core::Table::num(r.bandwidth_gbps, 3)});
    xs.push_back(static_cast<double>(r.period));
    ys.push_back(r.latency_us);
  }
  table.print();
  table.to_csv(bench::csv_path("fig2_stream_latency.csv"));
  const auto fit = sim::linear_fit(xs, ys);
  std::printf("PERIOD-latency linear fit: latency_us = %.4f * PERIOD + %.4f"
              " (R^2 = %.5f; paper reports a strong linear correlation)\n",
              fit.slope, fit.intercept, fit.r2);
  std::printf("latency range across sweep: %.2f - %.2f us (paper: 1.2 - 150 us)\n",
              ys.empty() ? 0.0 : ys.front(), ys.empty() ? 0.0 : ys.back());
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Figure 2: STREAM-measured latency vs injection PERIOD");
  args.add_string("scenario", "paper_twonode",
                  "scenario name (scenarios/<name>.json) or path");
  args.add_string("periods", "", "PERIOD axis override (comma-separated)");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  const auto periods = bench::axis_values<std::uint64_t>(
      args.int_list("periods"), spec.sweep.periods, kPeriods);

  const auto rows = bench::run_sweep(
      "fig2_stream_latency", periods,
      [&](std::uint64_t p) { return run_point(spec, p); });
  print_table(rows);
  spec.sweep.periods = periods;
  bench::echo_scenario(spec, "fig2_stream_latency.csv");
  return 0;
}
