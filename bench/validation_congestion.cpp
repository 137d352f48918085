// Validation of the paper's premise (§II-B, §III): real switched-network
// congestion manifests as increased remote-memory latency, and constant
// delay injection is a faithful emulation of its *mean* -- but not of its
// tail, which is the gap the paper's future-work (distribution-driven
// injection) closes.
//
// Setup: a two-switch dumbbell where K borrower-lender pairs share one
// trunk (bench/congestion_probe.hpp).  Pair 0 is the probe; the other K-1
// pairs stream at full tilt.  For each K we report the probe's latency
// mean/p99, then configure the point-to-point testbed's injector to the
// PERIOD that matches the congested mean and compare distributions.  Each
// K is an independent point, so the sweep fans out across $TFSIM_JOBS
// workers; the table/CSV are identical for any worker count.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congestion_probe.hpp"
#include "core/report.hpp"
#include "node/cluster.hpp"
#include "sim/config.hpp"
#include "workloads/stream/stream_flow.hpp"

using namespace tfsim;

namespace {

const std::vector<int> kPairCounts = {1, 2, 4, 8};

/// The two-node testbed's 16-lane probe at one injector PERIOD.
struct Injected {
  std::uint64_t period = 0;
  double mean_us = 0;
  double p99_us = 0;
};

struct Row {
  int pairs;
  bench::CongestedProbe congested;
  Injected matched;  ///< the two-node testbed at the matching PERIOD
};

Injected run_injected_at(std::uint64_t period) {
  node::Cluster tb(scenario::paper_two_node());
  tb.set_period(period);
  tb.attach_remote();
  workloads::FlowConfig fcfg;
  fcfg.concurrency = 16;
  fcfg.base = tb.remote_base();
  fcfg.span_bytes = 512 * sim::kMiB;
  fcfg.stop_at = sim::from_ms(5.0);
  workloads::RemoteStreamFlow flow(tb.engine(), tb.borrower().nic(), fcfg);
  flow.start();
  tb.engine().run();
  return {period, flow.stats().latency_us.mean(),
          tb.borrower().nic().latency_us().p99()};
}

/// The PERIOD whose probe mean is closest to `target_mean_us`.  The mean
/// grows with PERIOD (base latency plus gate queueing), so bisect the
/// integer PERIODs 1..4096 down to a bracket [lo, lo + 1] around the
/// target and keep its closer end.
Injected match_period(double target_mean_us) {
  Injected lo = run_injected_at(1);
  if (lo.mean_us >= target_mean_us) return lo;
  Injected hi = run_injected_at(4096);
  if (hi.mean_us <= target_mean_us) return hi;
  while (hi.period - lo.period > 1) {
    const Injected mid =
        run_injected_at(lo.period + (hi.period - lo.period) / 2);
    (mid.mean_us < target_mean_us ? lo : hi) = mid;
  }
  return target_mean_us - lo.mean_us <= hi.mean_us - target_mean_us ? lo : hi;
}

void print_table(const std::vector<Row>& rows) {
  core::Table table(
      "Switched-network congestion vs constant delay injection",
      {"active pairs", "congested mean (us)", "congested p99 (us)",
       "matched PERIOD", "matched-injection mean (us)",
       "matched-injection p99 (us)"});
  double worst_gap_us = 0.0;
  for (const auto& r : rows) {
    table.row({std::to_string(r.pairs),
               core::Table::num(r.congested.mean_us, 2),
               core::Table::num(r.congested.p99_us, 2),
               std::to_string(r.matched.period),
               core::Table::num(r.matched.mean_us, 2),
               core::Table::num(r.matched.p99_us, 2)});
    worst_gap_us = std::max(worst_gap_us,
                            std::abs(r.matched.mean_us - r.congested.mean_us));
  }
  table.print();
  table.to_csv(bench::csv_path("validation_congestion.csv"));
  const Row& most = rows.back();
  std::printf(
      "Trunk sharing raises remote-memory latency as the paper anticipates; "
      "constant injection at the matched PERIOD reproduces the congested "
      "mean to within %.3f us (validating the methodology), while the "
      "contended tail is heavier (p99 %.2f us congested vs %.2f us injected "
      "at %d pairs) -- the gap distribution-mode injection covers.\n",
      worst_gap_us, most.congested.p99_us, most.matched.p99_us, most.pairs);
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Switched-network congestion on a shared dumbbell trunk vs constant "
      "delay injection at the matched PERIOD");
  if (!args.parse(argc, argv)) return 1;

  const auto rows =
      bench::run_sweep("validation_congestion", kPairCounts, [](int pairs) {
        const bench::CongestedProbe congested = bench::run_congested(pairs);
        return Row{pairs, congested, match_period(congested.mean_us)};
      });
  print_table(rows);
  return 0;
}
