// Deterministic open-loop arrival processes.
//
// The ROADMAP north-star is serving traffic from millions of users, which a
// closed-loop workload (next request only after the previous response) can
// never represent: real clients do not slow down because the rack is slow.
// An ArrivalProcess emits the absolute times at which requests *would*
// arrive, independent of service progress, as a pure function of its seeded
// RNG — never wall-clock — so a stream is bit-for-bit reproducible across
// runs (each source owns a private stream on its borrower's calendar).
#pragma once

#include <cstdint>
#include <string>

#include "sim/rng.hpp"
#include "sim/units.hpp"

namespace tfsim::workloads {

enum class ArrivalKind {
  kPoisson,  ///< memoryless arrivals at a constant mean rate
  kBursty,   ///< deterministic on/off gating of a Poisson stream
  kDiurnal,  ///< sinusoidal rate modulation over a configurable period
};

/// Parse "poisson" / "bursty" / "diurnal"; throws std::invalid_argument on
/// anything else (scenario typos must fail loudly, like the fault layer).
ArrivalKind arrival_kind_from(const std::string& name);
std::string to_string(ArrivalKind kind);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate_rps = 0.0;    ///< long-run mean offered rate, requests/sec
  std::uint64_t seed = 1;   ///< private stream seed (split per source)
  // kBursty: fixed on/off phases starting in "on" at t=0.  The on-phase
  // rate is scaled by (on+off)/on so the long-run mean stays rate_rps.
  double burst_on_us = 100.0;
  double burst_off_us = 300.0;
  // kDiurnal: rate(t) = rate_rps * (1 + amplitude * sin(2*pi*t/period)).
  // One period is one simulated "day"; amplitude in [0, 1].
  double diurnal_period_us = 10'000.0;
  double diurnal_amplitude = 0.8;
};

/// Generates a strictly increasing stream of absolute arrival times by
/// thinning a homogeneous Poisson envelope at the configured peak rate
/// (Lewis & Shedler): candidates arrive exponentially at the peak rate and
/// are accepted with probability rate(t)/peak.  One algorithm covers all
/// three processes — for kPoisson the acceptance probability is 1, for
/// kBursty it is an on/off indicator — which keeps the determinism contract
/// trivial: the stream is a pure function of (config, number of next()
/// calls).
class ArrivalProcess {
 public:
  explicit ArrivalProcess(const ArrivalConfig& cfg);

  /// Next absolute arrival time (picoseconds), strictly after the previous
  /// one.  kTimeNever when rate_rps <= 0.
  sim::Time next();

  /// Instantaneous rate (requests/sec) at absolute time t.
  double rate_at(sim::Time t) const;

 private:
  ArrivalConfig cfg_;
  sim::Rng rng_;
  sim::Time cursor_ = 0;
  double peak_rate_rps_ = 0.0;
};

}  // namespace tfsim::workloads
