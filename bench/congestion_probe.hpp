// The congested probe of bench/validation_congestion: K borrower-lender
// pairs share one dumbbell trunk, pair 0 probes with modest parallelism and
// the other K-1 pairs are bursty heavy hitters, all as closed-loop NIC
// traffic on one calendar.  Shared by the bench and the golden digest table.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/serving.hpp"
#include "nic/nic.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/units.hpp"
#include "workloads/stream/stream_flow.hpp"

namespace tfsim::bench {

struct CongestedProbe {
  double mean_us = 0;  ///< probe (pair 0) flow's mean line latency
  double p99_us = 0;   ///< probe NIC's latency histogram p99
  /// FNV-1a over every flow's latency stats and every NIC's read, write and
  /// wire-byte counters, in pair order.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;  ///< events executed on the shared calendar
};

/// Probe latency with `pairs` active borrower-lender pairs on the dumbbell:
/// the built-in trunk_contention scenario at `pairs` pairs, whose most-free
/// placement gives borrower i its memory on lender i.
inline CongestedProbe run_congested(int pairs) {
  node::Cluster cluster(
      scenario::shared_trunk(static_cast<std::uint32_t>(pairs)));
  if (!cluster.attach_remote()) {
    throw std::runtime_error("congestion probe: remote memory did not attach");
  }
  std::vector<std::unique_ptr<workloads::RemoteStreamFlow>> flows;
  for (int i = 0; i < pairs; ++i) {
    const auto b = static_cast<std::size_t>(i);
    workloads::FlowConfig fcfg;
    // Pair 0 probes with modest parallelism; the rest are bursty heavy
    // hitters (on/off cross-traffic is what gives congestion its tail).
    fcfg.concurrency = i == 0 ? 16 : 128;
    fcfg.base = cluster.remote_base(b);
    fcfg.span_bytes = 512 * sim::kMiB;
    fcfg.stop_at = sim::from_ms(10.0);
    if (i != 0) {
      fcfg.phase_on = sim::from_us(120.0);
      fcfg.phase_off = sim::from_us(180.0);
      fcfg.seed = 17 + static_cast<std::uint64_t>(i);
    }
    flows.push_back(std::make_unique<workloads::RemoteStreamFlow>(
        cluster.engine(), cluster.borrower(b).nic(), fcfg));
  }
  for (auto& f : flows) f->start();
  cluster.engine().run();

  std::ostringstream obs;
  obs << std::hexfloat;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const workloads::FlowStats& s = flows[i]->stats();
    const nic::DisaggNic& n = cluster.borrower(i).nic();
    obs << i << ":" << s.lines_completed << "/" << s.latency_us.count() << "/"
        << s.first_issue << "/" << s.last_completion << "/"
        << s.latency_us.mean() << "/" << s.latency_us.variance() << "/"
        << s.latency_us.min() << "/" << s.latency_us.max() << ";nic r="
        << n.reads() << " w=" << n.writes() << " out=" << n.wire_bytes_out()
        << " in=" << n.wire_bytes_in() << " p99=" << n.latency_us().p99()
        << ";";
  }

  CongestedProbe probe;
  probe.mean_us = flows[0]->stats().latency_us.mean();
  // OnlineStats has no quantiles; use the NIC histogram for the probe NIC.
  probe.p99_us = cluster.borrower().nic().latency_us().p99();
  probe.digest = core::fnv1a(obs.str());
  probe.events = cluster.engine().executed();
  return probe;
}

}  // namespace tfsim::bench
