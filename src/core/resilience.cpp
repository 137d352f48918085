#include "core/resilience.hpp"

#include <stdexcept>

#include "mem/address.hpp"
#include "node/cluster.hpp"
#include "sim/sweep.hpp"

namespace tfsim::core {

std::string to_string(HealthClass h) {
  switch (h) {
    case HealthClass::kHealthy: return "healthy";
    case HealthClass::kRecovering: return "recovering";
    case HealthClass::kDegraded: return "degraded";
    case HealthClass::kDetached: return "detached";
    case HealthClass::kDeviceLost: return "device-lost";
  }
  return "?";
}

HealthClass parse_health_class(const std::string& name) {
  if (name == "healthy") return HealthClass::kHealthy;
  if (name == "recovering") return HealthClass::kRecovering;
  if (name == "degraded") return HealthClass::kDegraded;
  if (name == "detached") return HealthClass::kDetached;
  if (name == "device-lost") return HealthClass::kDeviceLost;
  throw std::invalid_argument("unknown health class \"" + name + "\"");
}

ResilienceProbe assess_resilience(std::uint64_t period,
                                  const ResilienceOptions& opts) {
  ResilienceProbe probe;
  probe.period = period;

  SessionConfig scfg;
  scfg.scenario = opts.scenario;
  scfg.scenario.injector.period = period;
  scfg.placement = node::Placement::kRemote;
  Session session(scfg);

  probe.attached = session.attached();
  if (!probe.attached) {
    probe.health = HealthClass::kDeviceLost;
    return probe;
  }

  const auto stream = session.run_stream(opts.stream);
  probe.stream_latency_us = stream.avg_latency_us;
  probe.stream_bandwidth_gbps = stream.best_bandwidth_gbps;
  probe.health = probe.stream_latency_us > opts.degraded_threshold_us
                     ? HealthClass::kDegraded
                     : HealthClass::kHealthy;
  return probe;
}

HealthClass classify(const FaultProbe& probe, double degraded_threshold_us) {
  if (!probe.attached) return HealthClass::kDeviceLost;
  if (probe.detached_lenders > 0) return HealthClass::kDetached;
  if (probe.failed > 0 || probe.avg_latency_us > degraded_threshold_us) {
    return HealthClass::kDegraded;
  }
  if (probe.retries > 0) return HealthClass::kRecovering;
  return HealthClass::kHealthy;
}

FaultProbe assess_fault_point(const FaultPoint& point,
                              const FaultMatrixOptions& opts) {
  FaultProbe probe;
  probe.point = point;

  scenario::ScenarioSpec spec = opts.scenario;
  spec.injector.period = point.period;
  spec.faults.link.loss_rate = point.loss_rate;
  spec.faults.link.corrupt_rate = opts.corrupt_rate;
  spec.faults.link.seed = opts.seed;
  spec.faults.link.flaps = opts.flap_schedules.at(point.flap_schedule);

  node::Cluster cluster(spec);
  probe.attached = cluster.attach_remote();
  if (!probe.attached) {
    probe.health = HealthClass::kDeviceLost;
    return probe;
  }

  // Closed-loop probe workload: stride one cache line through the remote
  // window, one access in flight, a write every 4th access.  Deterministic
  // by construction -- the only randomness is the seeded fault stream.
  auto& nic = cluster.borrower().nic();
  const mem::Addr base = cluster.remote_base();
  const std::uint64_t span = cluster.remote_span();
  const std::uint64_t lines = span / mem::kCacheLineBytes;
  sim::Time now = 0;
  for (std::uint32_t i = 0; i < opts.accesses; ++i) {
    const mem::Addr addr =
        base + (static_cast<std::uint64_t>(i) % lines) * mem::kCacheLineBytes;
    const auto t = nic.remote_access(now, addr, i % 4 == 3);
    if (t.has_value()) {
      ++probe.completed;
      now = t->completion;
    } else {
      ++probe.failed;
    }
  }

  probe.avg_latency_us = nic.latency_us().mean();
  probe.retries = nic.replay().retries();
  probe.abandoned = nic.replay().abandoned();
  probe.crc_drops = nic.replay().crc_drops();
  probe.frames_lost = nic.replay().frames_lost();
  probe.recovered = nic.replay().recovered();
  probe.detached_lenders = nic.detached_lenders();
  // The central robustness invariant: whatever the fabric did, the books
  // balance once the loop drains -- no tag or credit is stuck in flight.
  nic.check_quiesced();
  probe.health = classify(probe, opts.degraded_threshold_us);
  return probe;
}

std::vector<FaultProbe> assess_fault_matrix(const FaultMatrixOptions& opts) {
  return assess_fault_matrix(opts, sim::SweepRunner::jobs_from_env());
}

std::vector<FaultProbe> assess_fault_matrix(const FaultMatrixOptions& opts,
                                            unsigned jobs) {
  if (opts.flap_schedules.empty()) {
    throw std::invalid_argument(
        "assess_fault_matrix: need at least one flap schedule (may be empty)");
  }
  std::vector<FaultPoint> points;
  points.reserve(opts.periods.size() * opts.loss_rates.size() *
                 opts.flap_schedules.size());
  for (const std::uint64_t period : opts.periods) {
    for (const double loss : opts.loss_rates) {
      for (std::uint32_t f = 0; f < opts.flap_schedules.size(); ++f) {
        points.push_back(FaultPoint{period, loss, f});
      }
    }
  }
  const sim::SweepRunner runner(jobs);
  return runner.map(points, [&](const FaultPoint& p) {
    return assess_fault_point(p, opts);
  });
}

}  // namespace tfsim::core
