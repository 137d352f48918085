// STREAM (McCalpin) over simulated memory.
//
// The four kernels -- copy, scale, add, triad -- run on real double arrays
// (results are validated against the analytic expected values, as the
// original benchmark does) while every array line touched is charged to the
// simulated memory system.  Configured as in the paper: 10 M elements,
// ~0.23 GiB of arrays, beyond the node's 120 MiB of cache.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "node/context.hpp"
#include "node/node.hpp"
#include "workloads/sim_array.hpp"

namespace tfsim::workloads {

struct StreamConfig {
  std::uint64_t elements = 10'000'000;  ///< per array (doubles)
  std::uint32_t repetitions = 1;        ///< timed repetitions per kernel
  node::Placement placement = node::Placement::kRemote;
  /// 128 outstanding lines (threads x prefetch streams): together with the
  /// NIC window this pins the measured BDP at ~16.5 kB like the testbed.
  node::CpuConfig cpu{/*mlp=*/128, /*issue_cost=*/sim::from_ns(0.05)};
  sim::Time flop_cost = sim::from_ns(0.02);  ///< per floating-point op
  double scalar = 3.0;
};

struct StreamKernelResult {
  std::string kernel;
  sim::Time elapsed = 0;
  std::uint64_t bytes = 0;          ///< STREAM-counted bytes moved
  double bandwidth_gbps = 0.0;      ///< bytes / elapsed, GB/s
  double avg_latency_us = 0.0;      ///< mean remote-access latency observed
  bool validated = false;
  node::ContextStats context;       ///< the kernel's context, after drain()
};

struct StreamResult {
  std::vector<StreamKernelResult> kernels;
  sim::Time total_elapsed = 0;
  double best_bandwidth_gbps = 0.0;
  double avg_latency_us = 0.0;      ///< across all kernels
  bool validated = false;           ///< all kernels numerically correct

  const StreamKernelResult& kernel(const std::string& name) const;
};

class Stream {
 public:
  /// Arrays are allocated on `node` at construction (placement per config).
  Stream(node::Node& node, const StreamConfig& cfg);

  /// Run all four kernels once (plus repetitions) and report.
  StreamResult run();

  const StreamConfig& config() const { return cfg_; }
  /// Bytes of simulated memory the three arrays occupy.
  std::uint64_t footprint_bytes() const { return 3 * a_->bytes(); }

 private:
  void kernel_copy(node::MemContext& ctx);
  void kernel_scale(node::MemContext& ctx);
  void kernel_add(node::MemContext& ctx);
  void kernel_triad(node::MemContext& ctx);
  bool validate() const;

  node::Node& node_;
  StreamConfig cfg_;
  std::unique_ptr<SimArray<double>> a_;
  std::unique_ptr<SimArray<double>> b_;
  std::unique_ptr<SimArray<double>> c_;
};

}  // namespace tfsim::workloads
