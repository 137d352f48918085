// Serving harness: runs a scenario's open-loop "traffic" block over an
// assembled Cluster fabric and scores it against the "slo" block.
//
// One OpenLoopSource per (borrower, tenant) pair lives on the borrower's
// PDES domain; requests travel the routed fabric via Network::post_routed
// (hop-by-hop, each egress link transmitted only from its owner's domain),
// get QoS-arbitrated and serviced at the lender's domain, and return the
// same way.  All mutable state is domain-owned: borrower-side source and
// tracker state is touched only by borrower-domain events, lender-side
// queue/credit state only by lender-domain events — which is what makes the
// whole run a pure function of the spec (the golden digest table pins it,
// and golden_tests runs its serving_2ms rows twice in one process).
//
// Control-plane decisions (admission, placement, failover chains) are made
// up front by ctrl::ServingController; mid-run lender death is handled
// reactively by the data plane — after `failover_threshold` consecutive
// timeouts a source retargets the next lender in its precomputed chain —
// and reconciled in the registry after the run.
//
// When the scenario enables the online detector (detector.enabled), each
// source additionally runs a ctrl::HealthDetector over its own completion
// latencies and timeouts.  A timeout-dominated sick verdict re-stripes the
// source's ECMP flow around the dead path; a latency-dominated one (the
// gray-lender signature) re-stripes once, then migrates to the next lender
// in the chain *before* the timeout budget burns down, snapshotting the
// healthy baseline.  Every probe_interval-th dispatch afterwards probes the
// abandoned primary; rejoin_confirm consecutive probes completing within
// threshold x baseline rejoin it.  All of this is per-source local state,
// so the chaos reactions never depend on the order domains run in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/slo.hpp"
#include "node/cluster.hpp"
#include "workloads/openloop/generator.hpp"

namespace tfsim::core {

struct ServingTenantReport {
  std::string name;
  std::uint32_t weight = 1;
  std::uint32_t primary_lender = 0;  ///< registry id at admission
  workloads::OpenLoopCounters totals;
  std::uint64_t failovers = 0;
};

struct ServingReport {
  workloads::OpenLoopCounters totals;  ///< summed over every source
  std::vector<ServingTenantReport> tenants;
  std::vector<WindowStats> windows;  ///< SLO time-series, already scored
  sim::Histogram overall;            ///< completed-request latency (us)
  SloTargets targets;
  std::uint64_t windows_met = 0;
  std::uint64_t failovers = 0;
  /// Detector-driven ECMP re-stripes (stripe_shift bumps) across sources.
  std::uint64_t restripes = 0;
  /// Sources that returned to a recovered primary after probing it healthy.
  std::uint64_t rejoins = 0;
  /// Requests served inside a gray-lender window (service-time inflated).
  std::uint64_t gray_inflated = 0;
  /// Frames dropped by chaos down windows at switches (blast radius).
  std::uint64_t switch_chaos_drops = 0;
  bool balanced = false;  ///< offered == terminal buckets + residual
  /// Canonical fixed-order serialization of every observable above; two
  /// runs agree iff these strings are byte-identical.
  std::string serialized;
  std::uint64_t digest = 0;  ///< FNV-1a over `serialized`
};

/// Run the cluster's traffic block to completion and score it.  Throws
/// std::invalid_argument when the spec has no traffic block or the cluster
/// was assembled without per-node calendars (the routed dispatcher needs
/// them; set pdes.threads = 1).
ServingReport run_serving(node::Cluster& cluster);

/// FNV-1a 64-bit (shared by the serving bench and the golden digest table).
std::uint64_t fnv1a(const std::string& s);

}  // namespace tfsim::core
