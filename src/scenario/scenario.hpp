// Declarative scenario layer: everything needed to assemble an N-node
// disaggregation testbed as data instead of code.
//
// A ScenarioSpec names the nodes (roles, DRAM, NIC), the topology joining
// them (direct full-mesh links or a two-switch dumbbell with a shared
// trunk), the delay injector, the remote-memory reservations (with the
// control-plane placement policy, and optional striping across lenders),
// and sweep axes.  Specs are data: a small JSON file under scenarios/ (the
// built-ins below are exactly those files) -- the same config-driven
// approach rack-scale simulators such as DRackSim and CXL-ClusterSim use to
// cover many cluster shapes without baked-in topologies.  node::Cluster
// turns a spec into a live testbed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/health.hpp"
#include "mem/dram.hpp"
#include "net/fault.hpp"
#include "net/latency_dist.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "nic/nic.hpp"
#include "scenario/json.hpp"
#include "sim/units.hpp"

namespace tfsim::scenario {

enum class Role { kBorrower, kLender };

std::string to_string(Role role);

/// One node *template*: `count` > 1 expands into count nodes named
/// "<name>0".."<name>N-1" (a single node keeps the bare name).
struct NodeDecl {
  std::string name = "node";
  Role role = Role::kLender;
  std::uint32_t count = 1;
  mem::DramConfig dram;  ///< AC922 defaults: 512 GiB, 140 GB/s, 95 ns
  /// Borrower-capable (has the FPGA card).  Defaults from the role.
  std::optional<bool> with_nic;
  /// Window 129, 320 MHz.  The PERIOD is not declared here: the injector
  /// sets it on every borrower NIC (InjectorSpec::period).
  nic::NicConfig nic;

  bool nic_enabled() const {
    return with_nic.value_or(role == Role::kBorrower);
  }
};

enum class TopologyKind {
  kDirect,    ///< full-mesh borrower <-> lender point-to-point cables
  kDumbbell,  ///< borrowers -- switchA == shared trunk == switchB -- lenders
  kLeafSpine, ///< 2-tier fabric: hosts -- L leaves == S spines (ECMP-striped)
};

std::string to_string(TopologyKind kind);

struct TopologySpec {
  TopologyKind kind = TopologyKind::kDirect;
  net::LinkConfig link;    ///< direct cables / host <-> switch edge hops
  net::LinkConfig trunk;   ///< dumbbell only: the shared switch-switch hop
  net::LinkConfig uplink;  ///< leaf_spine only: the leaf <-> spine hops
  std::uint32_t leaves = 2;   ///< leaf_spine only
  std::uint32_t spines = 2;   ///< leaf_spine only
  net::SwitchConfig sw;       ///< egress queue policy for every switch

  /// Fabric nodes the topology adds beyond the declared hosts (the Cluster
  /// sizes its PDES partition as expanded_node_count() + switch_count()).
  std::uint32_t switch_count() const {
    switch (kind) {
      case TopologyKind::kDirect: return 0;
      case TopologyKind::kDumbbell: return 2;
      case TopologyKind::kLeafSpine: return leaves + spines;
    }
    return 0;
  }
};

/// Delay-injection settings applied to every borrower NIC at build time.
struct InjectorSpec {
  std::uint64_t period = 1;  ///< PERIOD gate; 1 = vanilla ThymesisFlow
  /// Distribution-mode injection (overrides `period` when set).
  std::optional<net::DistKind> dist_kind;
  double dist_mean_us = 0.0;
  std::uint64_t dist_seed = 42;
};

/// Why a PERIOD axis and a delay distribution exclude each other.  The
/// parse error on `sweep.periods` and the bench drivers' PERIOD setter both
/// print it.
inline constexpr const char* kPeriodsNeedGate =
    "a PERIOD axis cannot apply when injector.distribution is set (the "
    "distribution replaces the PERIOD gate, so every PERIOD would run the "
    "same injector)";

/// One remote-memory reservation request.  `borrower` empty = applies to
/// every borrower node.  `chunks` > 1 splits the size into equal chunks
/// reserved one at a time through the placement policy -- with "most-free"
/// and equally-sized lenders this stripes the region across lenders
/// round-robin (interleaved 1-borrower-N-lender pooling).
struct ReservationSpec {
  std::string borrower;
  std::uint64_t size_gib = 16;
  std::uint32_t chunks = 1;
  std::string name = "thymesisflow-borrowed";
};

/// Deterministic fault injection: every fabric link gets loss, corruption
/// and flap scheduling from one seeded FaultConfig (per-link streams are
/// split off the seed, so the pattern is a pure function of the spec), plus
/// an optional mid-run lender kill.  Defaults = pristine fabric.
struct FaultSpec {
  net::FaultConfig link;
  std::string kill_lender;  ///< expanded node name ("lender0"); "" = none
  double kill_at_us = 0.0;  ///< the lender stops responding from here on

  bool enabled() const { return link.enabled() || !kill_lender.empty(); }
};

/// Fabric chaos event kinds (the scripted gray-failure timeline).
enum class ChaosKind {
  kKillSwitch,    ///< the named switch hard-drops every frame
  kBrownoutPort,  ///< one switch egress port degrades ("switch:neighbor")
  kGrayLender,    ///< the named lender serves, but `factor`x slower
  kRecover,       ///< close the target's most recent open window
};

std::string to_string(ChaosKind kind);

/// One scripted chaos event.  `target` is a switch name suffix ("spine1"),
/// a "switch:neighbor" egress port ("leaf0:spine1"), or an expanded lender
/// name ("lender0").  `factor` is the brownout bandwidth factor in [0, 1)
/// or the gray-lender service inflation (> 1); unused for kill/recover.
/// `for_us` > 0 bounds the window without a matching recover event.
struct ChaosEventSpec {
  double at_us = 0.0;
  ChaosKind kind = ChaosKind::kKillSwitch;
  std::string target;
  double factor = 0.0;
  double for_us = 0.0;

  friend bool operator==(const ChaosEventSpec&,
                         const ChaosEventSpec&) = default;
};

/// The scripted chaos timeline.  Events must be listed in non-decreasing
/// at_us order; resolve_chaos() turns them into closed windows and rejects
/// malformed timelines (unmatched recover, overlapping windows on one
/// target, out-of-range factors).
struct ChaosSpec {
  std::uint64_t seed = 1;  ///< gray-lender jitter stream seed
  std::vector<ChaosEventSpec> events;

  bool enabled() const { return !events.empty(); }
};

/// One resolved chaos window: [start, end) of a non-recover event.  An
/// event never closed (no recover, no for_us) runs to sim::kTimeNever.
struct ChaosWindow {
  ChaosKind kind = ChaosKind::kKillSwitch;
  std::string target;
  sim::Time start = 0;
  sim::Time end = 0;
  double factor = 0.0;

  /// The window as a switch or lender schedule entry; `factor` carries over
  /// as the brownout bandwidth factor or the gray-lender inflation.
  net::FlapSpec flap() const { return {start, end - start, factor}; }
};

/// Validate the timeline and resolve it into windows in event order, which
/// is start order; one target's windows never overlap.  Throws
/// std::invalid_argument naming the offending field ("chaos.events[2].factor:
/// ...").  node::Cluster applies the switch windows at assembly;
/// core/run_serving applies the gray-lender windows; bench/chaos_mttr scores
/// recovery per window.
std::vector<ChaosWindow> resolve_chaos(const ChaosSpec& chaos);

/// Online gray-failure detector settings for the serving loop: the
/// detector's own knobs (ctrl::HealthConfig, written under its field names)
/// plus the serving loop's probe-and-rejoin rule.  Disabled by default: the
/// baseline behavior is timeout-driven failover only, which is exactly what
/// bench/chaos_mttr compares against.
struct DetectorSpec {
  bool enabled = false;
  ctrl::HealthConfig health;
  /// After migrating off a sick primary, every Nth dispatch probes it.
  std::uint32_t probe_interval = 16;
  /// A probe is "good" when it completes within rejoin_margin x the healthy
  /// baseline snapshot -- deliberately tighter than latency_threshold, so a
  /// lender that is merely less gray does not win the traffic back.
  double rejoin_margin = 1.5;
  /// Consecutive good probes before the source rejoins its recovered
  /// primary.
  std::uint32_t rejoin_confirm = 3;

  friend bool operator==(const DetectorSpec&, const DetectorSpec&) = default;
};

/// One tenant in the serving traffic mix: a named slice of the aggregate
/// offered rate with a QoS weight (ctrl/qos.hpp credits at the lender).
struct TrafficTenantSpec {
  std::string name = "default";
  std::uint32_t weight = 1;
  double rate_share = 1.0;  ///< fraction of traffic.rate_rps this tenant offers
};

/// Open-loop serving traffic (workloads/openloop): arrivals occur at the
/// configured rate regardless of service progress, split evenly over the
/// borrower nodes and across tenants by rate_share.  Disabled when
/// `process` is empty.
struct TrafficSpec {
  std::string process;           ///< "" | "poisson" | "bursty" | "diurnal"
  double rate_rps = 0.0;         ///< aggregate offered rate, requests/sec
  std::uint64_t seed = 1;        ///< per-source streams are split off this
  std::uint32_t max_in_flight = 64;   ///< dispatch window per source
  std::uint32_t queue_depth = 128;    ///< waiting room per source
  double duration_us = 0.0;      ///< arrival horizon (one diurnal cycle)
  double timeout_us = 200.0;     ///< per-request timeout (0 = wait forever)
  std::uint64_t req_bytes = 128;     ///< wire size of a request frame
  std::uint64_t resp_bytes = 1024;   ///< wire size of a response frame
  double burst_on_us = 100.0;    ///< bursty: on-phase length
  double burst_off_us = 300.0;   ///< bursty: off-phase length
  double diurnal_period_us = 10'000.0;  ///< diurnal: one simulated "day"
  double diurnal_amplitude = 0.8;       ///< diurnal: rate swing in [0,1]
  /// Lender service capacity, requests/sec; 0 = uncapped (no QoS gate, no
  /// service queueing — responses leave as fast as frames arrive).
  double lender_capacity_rps = 0.0;
  double qos_window_us = 100.0;  ///< QoS credit refill window
  double tenant_gib = 1.0;       ///< bytes booked per tenant at its lender
  /// Consecutive timeouts before a source retargets its next failover
  /// lender (reactive re-placement along the precomputed chain).
  std::uint32_t failover_threshold = 4;
  std::vector<TrafficTenantSpec> tenants;  ///< empty = one default tenant

  bool enabled() const { return !process.empty(); }
};

/// Declared SLO targets the tail tracker (core/slo.hpp) scores windows
/// against.  A target of 0 leaves that percentile unconstrained.
struct SloSpec {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double window_us = 1000.0;  ///< compliance-scoring window length
};

/// Per-node calendars (sim/pdes.hpp).  `threads` is an on/off switch kept
/// under its historical name: 0 runs the classic single shared calendar, 1
/// gives every node (and fabric switch) its own calendar, advanced serially
/// in lookahead windows -- the partition serving and post_routed need.
/// Values above 1 are rejected at parse time.  The lookahead is always the
/// fabric's minimum link propagation, the widest sound window.
struct PdesSpec {
  std::uint32_t threads = 0;   ///< 0 = one shared calendar, 1 = per node

  bool enabled() const { return threads > 0; }
};

/// Sweep axes a scenario can pin; empty = the bench's built-in default.
struct SweepSpec {
  std::vector<std::uint64_t> periods;
  std::vector<std::uint32_t> lenders;    ///< lender-count axis (pooling)
  std::vector<std::uint32_t> borrowers;  ///< borrower-count axis (trunk)
  std::vector<std::uint32_t> instances;  ///< per-node workload instances
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::string description;
  std::vector<NodeDecl> nodes;
  TopologySpec topology;
  InjectorSpec injector;
  /// Control-plane lender-selection policy (ctrl::make_policy name).
  std::string policy = "first-fit";
  std::vector<ReservationSpec> reservations;
  FaultSpec faults;
  ChaosSpec chaos;
  DetectorSpec detector;
  TrafficSpec traffic;
  SloSpec slo;
  PdesSpec pdes;
  SweepSpec sweep;

  /// Total declared nodes after count-expansion.
  std::uint32_t expanded_node_count() const;
  /// Set the count of every lender-role (resp. borrower-role) declaration;
  /// used by benches sweeping cluster size.
  void set_lender_count(std::uint32_t count);
  void set_borrower_count(std::uint32_t count);
};

// --- JSON (schema: the field tables in scenario.cpp; DESIGN.md section 9) --

/// Parse a scenario document; throws JsonError on syntax errors, unknown
/// keys (so files cannot rot silently), or out-of-range values, naming the
/// full path of the offending field ("nodes[0].nic.window_entries: ...").
ScenarioSpec from_json(const Json& doc);
ScenarioSpec parse(const std::string& text);
/// Load from a file; throws std::runtime_error when unreadable.
ScenarioSpec load_file(const std::string& path);

/// Serialize the *resolved* spec -- every field explicit, defaults filled
/// in -- for provenance echoes next to result CSVs.  from_json(to_json(s))
/// reproduces s exactly.
Json to_json(const ScenarioSpec& spec);
std::string resolved_json(const ScenarioSpec& spec);

/// Accepted numeric values [lo, hi]; an open end excludes its bound.
struct Range {
  double lo = 0.0;
  double hi = 0.0;
  bool lo_open = false;
  bool hi_open = false;
};

/// One leaf of the schema as its field table declares it.  Array elements
/// are spelled "[]" in the path ("nodes[].nic.window_entries").
struct FieldInfo {
  enum class Type { kBool, kInteger, kNumber, kString };
  std::string path;
  Type type = Type::kNumber;
  Range range;                       ///< numbers, in the key's unit
  std::vector<std::string> choices;  ///< strings: accepted values; empty = any
};

/// Every leaf of the schema, in dump order.
std::vector<FieldInfo> schema();

// --- built-in scenarios ----------------------------------------------------
//
// The built-ins are the checked-in files under scenarios/: each file is the
// only declaration of its scenario.  They are read from the source tree the
// library was compiled from, so a binary needs that checkout in place.

/// The paper's two-node ThymesisFlow prototype (scenarios/paper_twonode.json):
/// AC922 nodes (512 GiB DRAM), a borrower-only NIC (129-entry window, PERIOD
/// 1), one 100 Gb/s cable and 16 GiB borrowed.  core::SessionConfig's
/// default testbed.  Throws std::runtime_error naming the path when the file
/// cannot be read.
ScenarioSpec paper_two_node();

/// The built-in scenarios/<stem>.json ("paper_twonode", "pooling_1xN",
/// "trunk_contention", "leafspine_rack128", "serving_diurnal", ...);
/// nullopt when no such file exists or `stem` names a path.
std::optional<ScenarioSpec> builtin(const std::string& stem);

}  // namespace tfsim::scenario
