// Figure 4: system reliability testing under heavy delay injection.
//
// Exponentially increasing PERIOD stress-tests the stack.  The paper finds:
// at PERIOD=1000 STREAM completes with ~400 us effective access time and
// the CPU/OpenCAPI/FPGA stack stays functional; at PERIOD=10000 (an
// effective delay of ~4 ms) the compute-side FPGA is no longer detected and
// disaggregated memory cannot attach -- a crash, but at delays far beyond
// the 99th-percentile of datacenter fabrics.
//
// Each PERIOD is an independent probe, so the sweep fans out across
// $TFSIM_JOBS workers; the table/CSV are identical for any count.
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/resilience.hpp"
#include "sim/config.hpp"

using namespace tfsim;

namespace {

const std::vector<std::uint64_t> kPeriods = {1, 10, 100, 1000, 10000};

void print_table(const std::vector<core::ResilienceProbe>& probes) {
  core::Table table(
      "Figure 4: reliability under heavy delay injection",
      {"PERIOD", "attached", "STREAM latency (us)", "classification", "paper"});
  for (const auto& p : probes) {
    std::string paper;
    if (p.period == 1) paper = "vanilla baseline";
    if (p.period == 1000) paper = "~400 us, system functional";
    if (p.period == 10000) paper = "FPGA not detected (crash, ~4 ms)";
    table.row({std::to_string(p.period), p.attached ? "yes" : "NO",
               p.attached ? core::Table::num(p.stream_latency_us, 1) : "-",
               core::to_string(p.health), paper});
  }
  table.print();
  table.to_csv(bench::csv_path("fig4_resilience.csv"));
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args("Figure 4: reliability under heavy delay injection");
  if (!args.parse(argc, argv)) return 1;

  core::ResilienceOptions opts;
  opts.stream = bench::stream_config();
  const auto probes = bench::run_sweep(
      "fig4_resilience", kPeriods, [&](std::uint64_t period) {
        return core::assess_resilience(period, opts);
      });
  print_table(probes);
  return 0;
}
