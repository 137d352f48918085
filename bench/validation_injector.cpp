// §III-B validation: the cycle-level delay injector (AXI4-Stream READY
// gating, Eq. 1) and the event-level model used by the system simulation
// must agree.
//
// A saturating source drives the RTL-style pipeline
//   source -> router -> RateGate(PERIOD) -> round-robin mux -> sink
// for a fixed cycle budget; the event-level twin pushes back-to-back
// requests through a DelayInjector.  Both must deliver one transaction per
// PERIOD cycles (throughput = 1/PERIOD) with matching inter-arrival gaps.
//
// Each PERIOD is an independent testbench, so the sweep fans out across
// $TFSIM_JOBS workers; the tables/CSV are identical for any count.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "axi/checker.hpp"
#include "axi/endpoints.hpp"
#include "axi/monitor.hpp"
#include "axi/mux.hpp"
#include "axi/rate_gate.hpp"
#include "axi/router.hpp"
#include "axi/testbench.hpp"
#include "bench_common.hpp"
#include "core/protocol_report.hpp"
#include "core/report.hpp"
#include "nic/injector.hpp"
#include "sim/config.hpp"

using namespace tfsim;

namespace {

const std::vector<std::uint64_t> kPeriods = {1, 2, 4, 8, 16, 64, 256};
constexpr std::uint64_t kCycles = 200'000;
constexpr double kClockHz = 320e6;

struct Row {
  std::uint64_t period;
  double rtl_throughput;     ///< beats per cycle through the gate
  double rtl_mean_gap;       ///< cycles between consecutive beats
  double event_throughput;   ///< admissions per cycle (event model)
  bool protocol_clean;
  std::vector<axi::Violation> violations;  ///< printed after the sweep
};

Row run_one(std::uint64_t period) {
  Row row{};
  row.period = period;

  // Cycle-level pipeline, audited by the protocol-assertion layer: wire
  // checkers are bound to every wire and the gate/router/mux self-check
  // conservation.  Collect mode so a violation shows up in the table
  // instead of aborting the whole validation run.
  axi::Testbench tb(axi::CheckMode::kCollect);
  auto& w_src = tb.wire("src->router");
  auto& w_gate_in = tb.wire("router->gate");
  auto& w_gate_out = tb.wire("gate->mux");
  auto& w_sink = tb.wire("mux->sink");
  axi::Source::Config scfg;
  scfg.saturate = true;
  tb.add<axi::Source>("source", w_src, scfg);
  tb.add<axi::Router>("router", w_src, std::vector<axi::Wire*>{&w_gate_in});
  tb.add<axi::RateGate>("injector", w_gate_in, w_gate_out, period);
  tb.add<axi::RoundRobinMux>("mux", std::vector<axi::Wire*>{&w_gate_out}, w_sink);
  auto& sink = tb.add<axi::Sink>("sink", w_sink);
  auto& mon = tb.add<axi::Monitor>("monitor", w_sink, /*check_id_order=*/true);
  auto& flow = tb.watch_flow("egress-conservation", {&w_src}, {&w_sink});
  tb.run(kCycles);
  tb.finish_checks();

  row.rtl_throughput =
      static_cast<double>(sink.received()) / static_cast<double>(kCycles);
  row.rtl_mean_gap = mon.gap_stats().mean();
  row.protocol_clean =
      mon.clean() && tb.sink().clean() && flow.entered() == flow.exited();
  row.violations = tb.sink().violations();

  // Event-level twin: back-to-back admissions for the same wall-clock span.
  nic::DelayInjector injector(kClockHz, period);
  const sim::Time tclk = injector.clock_period();
  const sim::Time horizon = tclk * kCycles;
  sim::Time t = 0;
  std::uint64_t admitted = 0;
  while (true) {
    const sim::Time out = injector.admit(t);
    if (out >= horizon) break;
    // Saturating source: the next beat is offered the cycle after the
    // previous handshake completed.
    t = out + tclk;
    ++admitted;
  }
  row.event_throughput =
      static_cast<double>(admitted) / static_cast<double>(kCycles);
  return row;
}

void print_table(const std::vector<Row>& rows) {
  for (const auto& r : rows) {
    if (r.violations.empty()) continue;
    core::violation_table("AXI protocol violations (PERIOD=" +
                              std::to_string(r.period) + ")",
                          r.violations)
        .print();
  }
  core::Table table(
      "Injector validation: cycle-level RTL vs event-level model",
      {"PERIOD", "expected tput (1/PERIOD)", "RTL tput", "event tput",
       "RTL mean gap (cycles)", "AXI protocol"});
  double worst_rel_err = 0.0;
  for (const auto& r : rows) {
    const double expected = 1.0 / static_cast<double>(r.period);
    worst_rel_err = std::max(worst_rel_err,
                             std::abs(r.rtl_throughput - r.event_throughput) /
                                 expected);
    table.row({std::to_string(r.period), core::Table::num(expected, 6),
               core::Table::num(r.rtl_throughput, 6),
               core::Table::num(r.event_throughput, 6),
               core::Table::num(r.rtl_mean_gap, 3),
               r.protocol_clean ? "clean" : "VIOLATIONS"});
  }
  table.print();
  table.to_csv(bench::csv_path("validation_injector.csv"));
  std::printf("worst RTL/event relative disagreement: %.4f%%\n",
              worst_rel_err * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Injector validation: cycle-level RTL pipeline vs event-level model");
  if (!args.parse(argc, argv)) return 1;

  print_table(bench::run_sweep("validation_injector", kPeriods, run_one));
  return 0;
}
