// Bring-your-own-workload characterization via trace replay.
//
// Generates (or loads) a memory-access trace, then replays it against the
// testbed across a PERIOD sweep -- how you characterize an application this
// library does not implement.
//
//   ./trace_replay [--trace=path] [--periods=1,100,1000]
//                  [--save=captured.trace]
//
// Without --trace, a synthetic mixed workload (sequential scan + pointer
// chase + compute) is recorded first and then replayed.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/report.hpp"
#include "node/cluster.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "workloads/replay/trace.hpp"

using namespace tfsim;
using workloads::replay::Trace;

namespace {

/// Record a synthetic phase-mixed workload.
Trace record_synthetic() {
  node::Cluster tb(scenario::paper_two_node());
  tb.attach_remote();
  node::MemContext ctx(tb.borrower(), node::CpuConfig{16, 100}, "capture");
  workloads::replay::TraceRecorder rec(ctx, tb.remote_base());
  sim::Rng rng(5);
  const mem::Addr base = tb.remote_base();
  // Phase 1: sequential scan (prefetch friendly).
  for (int i = 0; i < 2000; ++i) {
    rec.access(base + static_cast<mem::Addr>(i) * 128, false, false);
  }
  // Phase 2: pointer chase over 8 MB (latency bound).
  for (int i = 0; i < 500; ++i) {
    rec.access(base + rng.uniform_u64(8 * sim::kMiB), false, true);
    rec.advance(sim::from_ns(20));
  }
  // Phase 3: read-modify-write with compute.
  for (int i = 0; i < 1000; ++i) {
    const mem::Addr a = base + rng.uniform_u64(4 * sim::kMiB);
    rec.access(a, false, true);
    rec.advance(sim::from_ns(100));
    rec.access(a, true, false);
  }
  return rec.trace();
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args("trace_replay: characterize any recorded access trace");
  args.add_string("trace", "", "trace file to replay (empty: synthesize one)");
  args.add_string("save", "", "write the trace being used to this file");
  args.add_int_list("periods", "1,100,1000", "injector PERIOD sweep");
  if (!args.parse(argc, argv)) return 1;

  Trace trace;
  if (!args.str("trace").empty()) {
    std::ifstream in(args.str("trace"));
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.str("trace").c_str());
      return 1;
    }
    trace = workloads::replay::parse_trace(in);
  } else {
    std::puts("no --trace given: recording a synthetic scan/chase/RMW mix");
    trace = record_synthetic();
  }
  if (!args.str("save").empty()) {
    std::ofstream out(args.str("save"));
    workloads::replay::write_trace(out, trace);
  }
  std::printf("trace: %llu accesses, %.1f MiB footprint\n",
              static_cast<unsigned long long>(trace.accesses()),
              static_cast<double>(trace.footprint_bytes()) /
                  static_cast<double>(sim::kMiB));

  core::Table table("trace replay vs injection PERIOD",
                    {"PERIOD", "elapsed (ms)", "degradation", "remote misses",
                     "avg miss latency (us)"});
  sim::Time baseline = 0;
  for (const auto period : args.int_list("periods")) {
    node::Cluster tb(scenario::paper_two_node());
    tb.set_period(static_cast<std::uint64_t>(period));
    if (!tb.attach_remote()) {
      std::fprintf(stderr, "PERIOD %lld: device lost\n",
                   static_cast<long long>(period));
      continue;
    }
    const auto res = workloads::replay::replay(tb.borrower(), trace,
                                               node::Placement::kRemote);
    if (baseline == 0) baseline = res.elapsed;
    table.row({std::to_string(period),
               core::Table::num(sim::to_ms(res.elapsed), 3),
               core::Table::ratio(static_cast<double>(res.elapsed) /
                                  static_cast<double>(baseline)),
               std::to_string(res.remote_misses),
               core::Table::num(res.avg_miss_latency_us, 2)});
  }
  table.print();
  return 0;
}
