// Online gray-failure detection from the borrower's own observations.
//
// A gray failure is a component that still answers but answers badly: a
// lender whose service latency quietly inflated 8x, a spine whose port
// brownout stretches every frame.  Timeout-driven failover (nic/replay.hpp,
// core/serving.cpp) only reacts once requests *die*; by then the retry
// budget is half-spent and the p99 window has already blown out.  The
// HealthDetector closes that gap: it watches the completion latencies and
// timeout events one source already observes, maintains an EWMA health
// score against a frozen healthy baseline, and flags the target sick after
// a confirmation run of bad samples -- early enough for the control layer
// to re-stripe or migrate before the timeout machinery engages.
//
// Determinism contract (simlint R1/R4): the detector is pure state fed by
// the observation sequence -- no wall clock, no RNG, no floating point that
// depends on call interleaving.  Each source owns one detector per target
// inside its own calendar domain, so its verdict sequence depends on that
// source's observations alone.
//
// Score model:
//   latency_score = ewma_latency / baseline   (baseline frozen after warmup)
//   timeout_score = timeout_weight * ewma_timeout_indicator
//   score = latency_score + timeout_score
// A sample is "bad" when score > latency_threshold; `confirm` consecutive
// bad samples => sick.  The two components are exposed separately so the
// reaction policy can distinguish a dead path (timeout-dominated: re-stripe
// around it) from a slow server (latency-dominated: migrate off it).
#pragma once

#include <cstdint>

#include "sim/units.hpp"

namespace tfsim::ctrl {

struct HealthConfig {
  /// EWMA smoothing factor for both the latency and timeout streams.
  double alpha = 0.3;
  /// Sick when the combined score exceeds this (score 1.0 == exactly at the
  /// healthy baseline, so 3.0 means "3x baseline latency or equivalent").
  double latency_threshold = 3.0;
  /// Weight of the timeout-indicator EWMA in the combined score.  With 10.0
  /// and alpha 0.3, three consecutive timeouts alone push the score past a
  /// threshold of 3.0 -- one observation before the serving failover walk's
  /// 4-timeout budget, which is the point of the detector.
  double timeout_weight = 10.0;
  /// Completions folded into the baseline before it freezes.  Until then the
  /// detector never reports sick (it is still learning what healthy means).
  std::uint32_t warmup = 16;
  /// Consecutive over-threshold samples required to report sick; absorbs a
  /// single stray slow completion without tripping.
  std::uint32_t confirm = 3;

  friend bool operator==(const HealthConfig&, const HealthConfig&) = default;
};

/// Per-target health tracker.  Feed it every completion latency and every
/// timeout the source observes for that target; poll sick() after each.
class HealthDetector {
 public:
  explicit HealthDetector(const HealthConfig& cfg);

  /// A request against the target completed with round-trip latency `us`.
  void observe_latency(double us);
  /// A request against the target timed out (no completion to measure).
  void observe_timeout();

  /// True once `confirm` consecutive observations scored over threshold
  /// (never during warmup).  Latches until reset()/soft_reset().
  bool sick() const { return sick_; }
  /// True when the sick verdict is driven more by timeouts than latency --
  /// the path-is-dead signature, as opposed to the server-is-slow one.
  bool timeout_dominated() const { return timeout_score() > latency_score(); }

  double latency_score() const;
  double timeout_score() const { return cfg_.timeout_weight * ewma_timeout_; }
  double score() const { return latency_score() + timeout_score(); }
  /// Frozen healthy baseline in us; 0.0 until warmup completes.
  double baseline_us() const { return warmed_up() ? baseline_ : 0.0; }
  bool warmed_up() const { return samples_ >= cfg_.warmup; }
  std::uint64_t observations() const { return observations_; }

  /// Clear the sick latch and the EWMA state but KEEP the frozen baseline:
  /// used after a re-stripe, where the target is the same lender reached
  /// over a different path and the old healthy baseline still applies.
  void soft_reset();
  /// Forget everything including the baseline: used after migrating to a
  /// different lender, whose healthy latency must be re-learned.
  void reset();

  const HealthConfig& config() const { return cfg_; }

 private:
  void score_sample();

  HealthConfig cfg_;
  double baseline_ = 0.0;       ///< mean of the first `warmup` latencies
  double ewma_latency_ = 0.0;   ///< smoothed completion latency (us)
  double ewma_timeout_ = 0.0;   ///< smoothed timeout indicator in [0, 1]
  std::uint32_t samples_ = 0;   ///< completions folded into the baseline
  std::uint32_t bad_streak_ = 0;
  std::uint64_t observations_ = 0;
  bool sick_ = false;
};

}  // namespace tfsim::ctrl
