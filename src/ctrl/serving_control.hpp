// Serving-oriented control plane: tenant admission on lender credit
// headroom, SLO-aware placement plans, and reactive re-placement when a
// lender dies mid-run.
//
// The data plane on per-node calendars cannot mutate shared control-plane
// state from a borrower's domain (that would break domain ownership), so
// placement decisions are made *up front*: admit_tenant() returns a
// Placement with a primary lender plus an ordered failover chain computed
// by the same allocation policy.  When the fault layer kills a lender, each
// source fails over along its precomputed chain using only domain-local
// state, while the registry bookkeeping is reconciled by the (serial)
// control plane via ControlPlane::migrate or
// ServingController::record_failover.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/policy.hpp"
#include "ctrl/registry.hpp"

namespace tfsim::ctrl {

/// A tenant asking to be served: its reservation size and its offered rate.
struct TenantSpec {
  std::string name;
  std::uint32_t weight = 1;    ///< QoS weight (see ctrl/qos.hpp)
  double rate_rps = 0.0;       ///< aggregate offered rate
  std::uint64_t bytes = 0;     ///< memory reserved at the lender
};

/// Result of admission: where the tenant's working set lives, and where its
/// traffic retargets (in order) if lenders die.
struct Placement {
  std::string tenant;
  std::uint32_t primary = 0;
  std::vector<std::uint32_t> failover;  ///< policy-ranked, primary excluded
};

struct AdmissionConfig {
  /// Serving capacity a single lender can sustain, requests/sec.  Tenants
  /// are admitted until the committed rate would exceed it.
  double lender_capacity_rps = 1e6;
  /// Headroom a lender keeps for its own OS (bytes, like ControlPlane).
  std::uint64_t lender_safety_margin = 4ULL * 1024 * 1024 * 1024;
};

/// Deterministic admission control on lender credit headroom: a lender's
/// "credits" are its remaining request-rate capacity and lendable bytes.
/// The same sequence of admit() calls always yields the same accept/reject
/// sequence — there is no load feedback loop, only booked commitments.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig cfg) : cfg_(cfg) {}

  /// True iff `lender` can absorb `rate_rps` more offered load and `bytes`
  /// more reservation.  Does not book — see commit().
  bool can_admit(const NodeRegistry& registry, std::uint32_t lender,
                 double rate_rps, std::uint64_t bytes) const;
  /// Book the commitment (call only after can_admit).
  void commit(std::uint32_t lender, double rate_rps);
  /// Return a dead lender's booked rate so survivors absorb the failover.
  void rescind(std::uint32_t lender);

  double committed_rps(std::uint32_t lender) const;
  double headroom_rps(std::uint32_t lender) const;
  const AdmissionConfig& config() const { return cfg_; }

 private:
  AdmissionConfig cfg_;
  std::map<std::uint32_t, double> committed_;  // ordered: deterministic
};

struct ServingConfig {
  AdmissionConfig admission;
  /// Length of the failover chain computed per tenant (how many lender
  /// deaths a placement survives without re-planning).
  std::uint32_t failover_depth = 2;
};

class ServingController {
 public:
  ServingController(NodeRegistry& registry,
                    std::unique_ptr<AllocationPolicy> policy,
                    ServingConfig cfg);

  /// Admit a tenant on behalf of `borrower`: checks rate and byte headroom,
  /// places via the policy, books the commitment, and computes the failover
  /// chain.  nullopt = deterministic rejection (no viable lender with
  /// enough credit headroom).
  std::optional<Placement> admit_tenant(const TenantSpec& spec,
                                        std::uint32_t borrower);

  /// Reconcile bookkeeping after the data plane failed over away from
  /// `dead`: rescinds the dead lender's booked rate and re-books the
  /// tenant's rate on `replacement`.
  void record_failover(const TenantSpec& spec, std::uint32_t dead,
                       std::uint32_t replacement);

  AdmissionController& admission() { return admission_; }
  const std::vector<Placement>& placements() const { return placements_; }

 private:
  /// Policy-ranked lender order for `spec`, best first, excluding
  /// `exclude` and the borrower itself; only lenders passing admission.
  std::vector<std::uint32_t> ranked_candidates(
      const TenantSpec& spec, std::uint32_t borrower,
      const std::vector<std::uint32_t>& exclude);

  NodeRegistry& registry_;
  std::unique_ptr<AllocationPolicy> policy_;
  ServingConfig cfg_;
  AdmissionController admission_;
  std::vector<Placement> placements_;
};

}  // namespace tfsim::ctrl
