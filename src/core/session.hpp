// Characterization session: one configured run of the delay-injection
// framework on a fresh testbed.
//
// The paper's methodology restarts the system between runs (injected delay
// is constant within a run, changed across runs); a Session mirrors that: it
// owns a fresh node::Cluster assembled from its scenario (the injector block
// sets the PERIOD, or a delay distribution for the future-work mode),
// attaches the remote memory, and exposes ready-to-run workload drivers.
#pragma once

#include <optional>

#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "workloads/graph500/graph500.hpp"
#include "workloads/kvstore/kvstore.hpp"
#include "workloads/kvstore/memtier.hpp"
#include "workloads/stream/stream.hpp"

namespace tfsim::core {

struct SessionConfig {
  /// The testbed, applied in full (faults and chaos included).  Its
  /// injector block sets the PERIOD or the delay distribution.
  scenario::ScenarioSpec scenario = scenario::paper_two_node();
  /// Workload data placement: kRemote for disaggregated runs, kLocal for
  /// the local-memory baselines of Table I.
  node::Placement placement = node::Placement::kRemote;
  /// Enable the hot-page migration daemon (the paper's proposed OS-level
  /// QoS mechanism) on the borrower.
  std::optional<node::MigrationConfig> migration;
};

class Session {
 public:
  explicit Session(const SessionConfig& cfg);

  /// True when the remote region attached (always true for kLocal
  /// placement).  False reproduces the Fig. 4 device-lost failure.
  bool attached() const { return attached_; }

  node::Cluster& cluster() { return cluster_; }
  /// Effective injector spacing PERIOD x Tclk (0 in distribution mode).
  sim::Time injector_interval() const;

  /// Run STREAM with the session placement.
  workloads::StreamResult run_stream(const workloads::StreamConfig& cfg);

  /// Graph500 job-level runs (kernel 1 construction + search kernel): the
  /// "job completion time" metric of Table I / Fig. 5.  The edge list is
  /// generated once by the caller and copied per session.
  workloads::g500::JobResult run_bfs_job(
      const workloads::g500::Graph500Config& cfg,
      const workloads::g500::EdgeList& edges, std::uint32_t root);
  workloads::g500::JobResult run_sssp_job(
      const workloads::g500::Graph500Config& cfg,
      const workloads::g500::EdgeList& edges, std::uint32_t root);

  /// Run the Redis-like server under Memtier load.
  workloads::kv::MemtierResult run_memtier(
      const workloads::kv::KvStoreConfig& store_cfg,
      const workloads::kv::MemtierConfig& load_cfg);

  /// Borrower NIC stats accessors (valid after a remote run).
  const nic::DisaggNic& nic() const;

 private:
  node::Cluster cluster_;
  node::Placement placement_;
  bool attached_ = false;
};

}  // namespace tfsim::core
