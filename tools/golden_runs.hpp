// Reference runs: the small seeded workloads that the golden digest table
// (tests/golden/digests.txt) pins, and their registry, reference_runs().
//
// Each run returns the canonical fixed-order serialization of everything it
// observed plus the engine's event and lookahead-window counts, so a golden
// row (FNV-1a digest, events, windows) changes whenever any observable does.
// golden_tests runs every producer twice in one process: a row that differs
// between the two runs exposes pointer-order, padding or unordered-iteration
// nondeterminism that a single run per process could pin by accident.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/serving.hpp"
#include "node/node.hpp"
#include "scenario/scenario.hpp"
#include "sim/units.hpp"

namespace tfsim::golden {

struct Run {
  std::string serialized;     ///< canonical fixed-order observables
  std::uint64_t events = 0;   ///< events executed across every calendar
  std::uint64_t windows = 0;  ///< lookahead windows opened
  std::uint64_t switch_drops = 0;
  std::uint64_t digest() const { return core::fnv1a(serialized); }
};

/// Bare per-domain calendars, no fabric: every domain runs a seeded chain of
/// `chain_len` hops, each posting to the next domain one lookahead out.
Run calendar_ring(std::size_t domains, sim::Time lookahead,
                  std::uint64_t seed, int chain_len);

/// A 12-node one-way ring of links with seeded propagation delays; each node
/// bounces a 50-hop frame chain onward.
Run ring_fabric(std::uint64_t seed);

/// A 2x2 leaf/spine rack with 4 KiB kDrop egress buffers: four bounce chains
/// per host cross the spine tier, so ECMP striping, switch admission and
/// tail drops all land in the serialization.
Run leafspine_fabric(std::uint64_t seed);

/// A random strongly connected fabric (2..12 nodes, ring plus chords, every
/// link with its own propagation and bandwidth) carrying seeded random-walk
/// traffic of `hops_per_node` hops from each node.
Run random_fabric(std::uint64_t seed, int hops_per_node);

// --- single-engine and worker-pool probes ---------------------------------
//
// A probe throws std::logic_error naming the broken invariant when the two
// executions it compares diverge or the path it exists for went
// unexercised.

/// Thousands of events on one calendar with deliberately colliding
/// timestamps, rescheduled from nested callbacks, some cancelled: the
/// (id, time) of every event in execution order.
Run engine_collisions(std::uint64_t seed);

/// 20000 draws of exponential + Pareto + lognormal: every sample, the
/// Histogram summary and the OnlineStats moments.
Run rng_stats(std::uint64_t seed);

/// The cycle-level AXI egress pipeline (router -> RateGate -> FIFO -> mux)
/// between a probabilistic source and sink: every arrival, the monitor's
/// gap statistics and the protocol checker's verdict.
Run axi_pipeline(std::uint64_t seed);

/// The same pipeline under SettleMode::kNaive and kActivity, once with a
/// probabilistic source/sink at PERIOD 3 (every cycle stepped) and once
/// saturated at PERIOD 50 (most cycles fast-forwarded).  Throws unless the
/// two modes agree in both regimes, naive skips no cycle and activity
/// skips some in the gated regime (DESIGN.md section 10).
Run settle_modes(std::uint64_t seed);

/// Sixteen independent engine+RNG jobs run by SweepRunner serially and on
/// four workers.  Throws unless both result vectors are identical.
Run sweep_runner(std::uint64_t seed);

/// A (PERIOD x loss x flap) resilience matrix with NIC retry/replay active,
/// assessed serially and on eight workers.  Throws unless both are
/// identical and the matrix retried at least once.
Run fault_matrix(std::uint64_t seed);

// --- closed-loop runs on scenarios/paper_twonode (shared calendar) --------
//
// Each serializes the per-context ContextStats (stall and compute time, the
// miss-latency moments), the borrower NIC's counts, request-window stalls
// and occupancy, the latency histogram summary and the lender DRAM's load.

/// STREAM with its arrays in remote memory at injector PERIOD `period`,
/// `elements` doubles per array: the four kernel times and contexts.
Run closed_stream(std::uint64_t period, std::uint64_t elements);

/// Graph500 kernel-1 replay plus BFS from root 1 on a scale-`scale`,
/// edgefactor-16 graph placed per `placement` at injector PERIOD `period`.
Run closed_bfs(std::uint32_t scale, std::uint64_t period,
               node::Placement placement = node::Placement::kRemote);

/// The same graph's kernel-1 replay plus SSSP from root 1, in remote memory.
Run closed_sssp(std::uint32_t scale, std::uint64_t period);

/// The Redis-like store in remote memory at injector PERIOD `period` under
/// the default Memtier client mix over `keys` keys, `requests` requests per
/// client: the request counts, completion time, latency histogram summary
/// and GET validation.
Run closed_memtier(std::uint64_t period, std::uint64_t keys,
                   std::uint64_t requests);

/// One context streaming `lines` lines of a remote and of a local array in
/// lockstep: every local miss is issued after remote misses yet completes
/// first, so MSHR slots free out of issue order.
Run closed_mixed(std::uint64_t lines);

/// A NIC with 16 of its 129 window entries reserved for the latency class,
/// shared by a bulk and a latency-class context (`lines` remote lines each,
/// interleaved by context clock): both window classes fill and stall.
Run closed_qos(std::uint64_t lines);

/// serving_diurnal through bench::compress_serving at 2 ms: one diurnal
/// cycle, the lender kill at its 1 ms peak, 500 us SLO windows.
scenario::ScenarioSpec compressed_serving();

/// chaos_rack through bench::compress_chaos at 8 ms, half its duration:
/// every chaos event and the SLO window scale with the horizon, so all of
/// them still land inside the run.
scenario::ScenarioSpec compressed_chaos();

struct ServingRun {
  core::ServingReport report;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
};

/// Assemble the spec's cluster and run its traffic block.
ServingRun serve(const scenario::ScenarioSpec& spec);

/// One row of the golden digest table.
struct Row {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  bool operator==(const Row&) const = default;
};

Row row_of(const Run& run);
Row row_of(const ServingRun& run);

/// Produces one row.  Throws std::logic_error naming the invariant when a
/// path the run exists to exercise went unexercised, or when two executions
/// it compares diverged.
using Producer = std::function<Row()>;

/// Every reference run, by row name, in table order.
std::vector<std::pair<std::string, Producer>> reference_runs();

/// "<name> <digest hex> <events> <windows>": the table's line format.
std::string format_row(const std::string& name, const Row& r);

/// The checked-in tests/golden/digests.txt, keyed by run name.  Throws
/// std::runtime_error on an unreadable file or a malformed or duplicate row.
std::map<std::string, Row> read_table();

/// The table's line for `name` (format_row of its row), or "" if it has none.
std::string table_line(const std::string& name);

}  // namespace tfsim::golden
