// The benchmark's two workloads.  Each run_* function performs one
// repetition afresh -- load the checked-in scenario, assemble the
// cluster, generate the inputs, run, check -- and reports host times, the
// simulated-operation counts, a digest of the simulated outputs and the
// per-layer counters read from the simulator's public accessors.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <string>

#include "spans.hpp"

namespace perfbench {

/// Shortest text that reads back as exactly `v` (JSON numbers, digests).
inline std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< self-test sizes
  std::string scenario_dir;   ///< the repository's scenarios/
  std::string spans_path;     ///< where a traced run writes its spans
  std::string commit = "unknown";
};

// Workload sizes; README.md gives the measurements behind them.
inline std::uint64_t stream_elements(const Options& o) {
  return o.tiny ? 200'000 : 4'000'000;
}
/// serving_diurnal's own horizon is 20 ms; the full size stretches it 10x
/// so a run holds fewer, longer repetitions (see README.md).
inline double serving_horizon_us(const Options& o) {
  return o.tiny ? 20'000.0 : 200'000.0;
}

/// One repetition of a workload.
struct Rep {
  double setup_s = 0.0;  ///< rep start -> first simulated access
  double run_s = 0.0;    ///< the simulated run, host seconds
  double run_cpu_s = 0.0;  ///< the same, process CPU seconds
  /// Simulated operations the run executed: logical memory accesses (the
  /// borrower's L1 accesses) or offered serving requests.
  double ops = 0.0;
  /// Simulated operations attempted and those that failed or were refused:
  /// NIC transactions and NIC failures, or offered requests and
  /// failed + rejected + shed.
  std::uint64_t sim_attempted = 0;
  std::uint64_t sim_failed = 0;
  std::string check_error;  ///< empty when the functional check passed
  std::uint64_t sim_digest = 0;
  /// Per-layer counters (simulated quantities; empty layers read 0).
  std::map<std::string, double> layer;
  unsigned pdes_threads = 0;  ///< PDES workers the cluster ran with
  bool traced = false;        ///< spans were recorded for this repetition
};

Rep run_stream_remote(const Options& opt, Spans& spans);
Rep run_serving_rack(const Options& opt, Spans& spans);

/// Host nanoseconds per call of each hot layer's public entry point, from
/// replaying inputs of the workload's kind into a fresh instance.  Layers
/// the workload does not use read 0.
std::map<std::string, double> replay_layers(const Options& opt,
                                            const Rep& traced);

}  // namespace perfbench
