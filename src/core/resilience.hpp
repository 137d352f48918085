// Resilience assessment (paper §IV-C): classify system health under a given
// injection PERIOD by probing the attach handshake and, when attached,
// measuring STREAM's effective memory access time.
//
// The single-PERIOD probe generalizes to a (period x loss x flap) fault
// matrix: each point builds a fresh Cluster with the fault layer configured,
// drives a fixed closed-loop access pattern through the borrower NIC, and
// classifies the outcome.  Faults widen the health spectrum beyond the
// paper's healthy/degraded/device-lost: a run can complete only thanks to
// DL replay (recovering) or survive by amputating a dead lender (detached).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "net/fault.hpp"
#include "scenario/scenario.hpp"
#include "workloads/stream/stream.hpp"

namespace tfsim::core {

enum class HealthClass {
  kHealthy,     ///< latency within normal datacenter-network range
  kRecovering,  ///< completed within SLA, but only via DL retransmissions
  kDegraded,    ///< runs to completion with severe slowdown (SLA risk)
  kDetached,    ///< survived by detaching a lender (capacity loss)
  kDeviceLost,  ///< FPGA not detected; memory cannot attach (system failure)
};

std::string to_string(HealthClass h);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
HealthClass parse_health_class(const std::string& name);

struct ResilienceProbe {
  std::uint64_t period = 0;
  bool attached = false;
  double stream_latency_us = 0.0;   ///< 0 when not attached
  double stream_bandwidth_gbps = 0.0;
  HealthClass health = HealthClass::kHealthy;
};

struct ResilienceOptions {
  /// Latency above this classifies the run as degraded (SLA threshold).
  double degraded_threshold_us = 100.0;
  workloads::StreamConfig stream;
  /// Base testbed; each probe overwrites `scenario.injector.period`.
  scenario::ScenarioSpec scenario = scenario::paper_two_node();
};

/// Probe one PERIOD on a fresh testbed.
ResilienceProbe assess_resilience(std::uint64_t period,
                                  const ResilienceOptions& opts);

// --- fault matrix ----------------------------------------------------------

/// One point of the (period x loss x flap-schedule) matrix.
struct FaultPoint {
  std::uint64_t period = 1;
  double loss_rate = 0.0;
  std::uint32_t flap_schedule = 0;  ///< index into FaultMatrixOptions
};

struct FaultProbe {
  FaultPoint point;
  bool attached = false;
  std::uint64_t completed = 0;  ///< accesses that finished (incl. retried)
  std::uint64_t failed = 0;     ///< accesses surfaced as fail responses
  double avg_latency_us = 0.0;  ///< mean end-to-end latency of completions
  std::uint64_t retries = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t crc_drops = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t recovered = 0;
  std::uint32_t detached_lenders = 0;
  HealthClass health = HealthClass::kHealthy;
};

struct FaultMatrixOptions {
  /// Base testbed; per-point faults overwrite `scenario.faults.link` (an
  /// embedded kill_lender is kept and applies at every point).
  scenario::ScenarioSpec scenario = scenario::paper_two_node();
  std::vector<std::uint64_t> periods = {1, 100, 1000};
  std::vector<double> loss_rates = {0.0, 1e-4, 1e-2};
  /// Flap schedules; index 0 should stay empty so the matrix has a
  /// flap-free column.  Every schedule is applied to every link.
  std::vector<std::vector<net::FlapSpec>> flap_schedules = {{}};
  double corrupt_rate = 0.0;  ///< held constant across the matrix
  std::uint64_t seed = 1;
  /// Closed-loop accesses driven through the borrower NIC per point.
  std::uint32_t accesses = 2000;
  double degraded_threshold_us = 100.0;
};

/// Classification precedence: device-lost > detached > degraded (over-SLA
/// latency or surfaced failures) > recovering (needed retries) > healthy.
HealthClass classify(const FaultProbe& probe, double degraded_threshold_us);

/// Probe one matrix point on a fresh Cluster.  Asserts the protocol books
/// balance at quiesce (every credit and tag reclaimed) -- a lost frame may
/// cost latency or an abandonment, never a hung transaction.
FaultProbe assess_fault_point(const FaultPoint& point,
                              const FaultMatrixOptions& opts);

/// The full matrix in row-major (period, loss, flap) order, fanned out over
/// `jobs` workers (TFSIM_JOBS default).  Results are byte-identical to the
/// serial loop: each point owns its Cluster and its fault streams.
std::vector<FaultProbe> assess_fault_matrix(const FaultMatrixOptions& opts);
std::vector<FaultProbe> assess_fault_matrix(const FaultMatrixOptions& opts,
                                            unsigned jobs);

}  // namespace tfsim::core
