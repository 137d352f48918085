// An N-node disaggregation testbed assembled from a declarative
// scenario::ScenarioSpec: borrower and lender nodes, the fabric joining
// them (direct cables or a two-switch dumbbell with a shared trunk), the
// control plane with the configured placement policy, and the
// remote-memory reservations (optionally striped across lenders).
//
// Cluster generalizes the paper's hardwired two-node prototype to
// 1-borrower-N-lender pooling and M-borrowers-sharing-a-trunk contention.
// It is the only testbed assembly: the prototype itself is the
// scenario::paper_two_node() instance, and core::Session builds its
// Cluster straight from the scenario it is given.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "ctrl/registry.hpp"
#include "net/network.hpp"
#include "node/context.hpp"
#include "node/node.hpp"
#include "scenario/scenario.hpp"
#include "sim/domain.hpp"
#include "sim/engine.hpp"
#include "sim/pdes.hpp"

namespace tfsim::node {

class Cluster {
 public:
  explicit Cluster(const scenario::ScenarioSpec& spec);

  /// The shared (cluster-wide) calendar.  In PDES mode this still exists
  /// and drives cross-cutting activity (flows, benches, MemContext sync);
  /// each node's *own* events live on its domain calendar (engine_for).
  sim::Engine& engine() { return engine_; }
  /// Per-node calendars when the scenario sets pdes.threads = 1; nullptr
  /// in the classic single-calendar mode.
  sim::ParallelEngine* pdes() { return pdes_.get(); }
  const sim::ParallelEngine* pdes() const { return pdes_.get(); }
  /// The calendar node i's events run on: its PDES domain when partitioned,
  /// the shared engine otherwise.  Node index == DomainId by construction.
  sim::Engine& engine_for(std::size_t i) { return node(i).engine(); }
  net::Network& network() { return network_; }
  /// Domain-ownership checker (simlint R5's runtime half).  Every node gets
  /// its own domain at assembly; mode comes from TFSIM_DOMAIN_CHECK.
  sim::DomainChecker& domains() { return domains_; }
  ctrl::NodeRegistry& registry() { return registry_; }
  ctrl::ControlPlane& control_plane() { return *cp_; }
  const scenario::ScenarioSpec& spec() const { return spec_; }

  std::size_t num_nodes() const { return nodes_.size(); }
  Node& node(std::size_t i) { return *nodes_.at(i); }
  /// Lookup by expanded name ("borrower", "lender2", ...); nullptr if absent.
  Node* find(const std::string& name);

  std::size_t num_borrowers() const { return borrowers_.size(); }
  std::size_t num_lenders() const { return lenders_.size(); }
  Node& borrower(std::size_t i = 0) { return *borrowers_.at(i); }
  const Node& borrower(std::size_t i = 0) const { return *borrowers_.at(i); }
  Node& lender(std::size_t i = 0) { return *lenders_.at(i); }
  /// Control-plane registry id of a node (for reserve()/telemetry calls).
  std::uint32_t registry_id(const Node& n) const;

  /// Execute every reservation in the spec: policy-picked lender(s), chunked
  /// striping, NIC translation programming, and the hot-plug attach
  /// handshake.  Returns false when any FPGA attach handshake times out
  /// (extreme PERIOD; the Fig. 4 failure) or no lender can host a chunk.
  bool attach_remote();
  bool remote_attached() const { return attached_; }
  /// Base (resp. total bytes) of borrower i's hot-plugged remote window.
  /// Chunks attach contiguously, so [base, base + span) is usable.
  mem::Addr remote_base(std::size_t i = 0) const;
  std::uint64_t remote_span(std::size_t i = 0) const;

  /// Reconfigure every borrower NIC injector between runs.
  void set_period(std::uint64_t period);
  std::uint64_t period() const;

  /// Declare lender i dead from `at` on (mid-run node failure): every
  /// borrower NIC sees requests to it vanish, retries, and eventually
  /// detaches it.  The spec's faults.kill_lender applies this at build.
  void kill_lender(std::size_t lender_idx, sim::Time at);

  /// A CPU context on borrower i (the node running the workloads).
  MemContext make_context(const CpuConfig& cfg, std::string name = "ctx",
                          std::size_t borrower_idx = 0) {
    return MemContext(borrower(borrower_idx), cfg, std::move(name));
  }

 private:
  void resolve_pdes();
  void build_nodes();
  void build_topology();
  /// Give a fabric switch its own ownership domain (and, under PDES, its
  /// own calendar): the DomainId must equal the network NodeId, extending
  /// the host-index identity partition past the compute nodes.
  void register_switch_domain(net::NodeId sw);
  void build_control_plane();
  void apply_injector();
  void apply_faults();
  /// Resolve the scenario's chaos timeline into read-only switch down /
  /// port-brownout windows (written once here, only read per frame after,
  /// so no domain's events ever mutate them).  Gray-lender windows stay in the
  /// spec; core/run_serving applies them at the lender's service queue.
  void apply_chaos();

  scenario::ScenarioSpec spec_;
  sim::Engine engine_;
  std::unique_ptr<sim::ParallelEngine> pdes_;  ///< set when PDES enabled
  net::Network network_;
  sim::DomainChecker domains_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Node*> borrowers_;
  std::vector<Node*> lenders_;
  ctrl::NodeRegistry registry_;
  std::vector<std::uint32_t> registry_ids_;  ///< parallel to nodes_
  std::unique_ptr<ctrl::ControlPlane> cp_;
  bool attached_ = false;
  /// Per borrower: [base, end) of the attached remote window.
  struct RemoteWindow {
    std::optional<mem::Addr> base;
    mem::Addr end = 0;
  };
  std::vector<RemoteWindow> remote_;  ///< parallel to borrowers_
};

}  // namespace tfsim::node
