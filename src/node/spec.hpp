// Node and CPU-context configuration (POWER9 AC922-like defaults, matching
// the paper's prototype and the calibration constants in DESIGN.md §4).
#pragma once

#include <cstdint>

#include "mem/dram.hpp"
#include "mem/hierarchy.hpp"
#include "nic/nic.hpp"
#include "sim/server.hpp"
#include "sim/units.hpp"

namespace tfsim::node {

/// Per-context CPU parameters.  `mlp` is the number of outstanding
/// independent misses a context sustains (hardware threads x load-stream
/// depth for throughput-oriented workloads; ~1 for pointer chasing).
struct CpuConfig {
  std::uint32_t mlp = 16;
  sim::Time issue_cost = sim::from_ns(0.3);  ///< per memory instruction
  /// Network QoS class for this context's remote traffic (the paper's
  /// packet-prioritization mechanism; kBulk = no special treatment).
  sim::Priority net_priority = sim::Priority::kBulk;
};

struct NodeSpec {
  std::string name = "node";
  mem::DramConfig dram;               ///< 512 GB, 140 GB/s, 95 ns
  bool with_nic = true;               ///< borrower-capable (has the FPGA card)
  nic::NicConfig nic;                 ///< window 129, 320 MHz, PERIOD 1
};

}  // namespace tfsim::node
