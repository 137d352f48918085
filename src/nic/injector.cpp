#include "nic/injector.hpp"

#include <stdexcept>
#include <string>

namespace tfsim::nic {

namespace {

/// PERIOD x Tclk, rejecting a product that wraps simulated time (direct API
/// callers and Cluster::set_period bypass the scenario parser's caps).
sim::Time gate_interval(sim::Time tclk, std::uint64_t period) {
  if (period != 0 && tclk > sim::kTimeNever / period) {
    throw std::invalid_argument(
        "DelayInjector: PERIOD " + std::to_string(period) + " x Tclk " +
        std::to_string(tclk) + " ps overflows simulated time");
  }
  return tclk * period;
}

}  // namespace

DelayInjector::DelayInjector(double fpga_clock_hz, std::uint64_t period)
    : mode_(Mode::kPeriodGate),
      tclk_(sim::clock_period(fpga_clock_hz)),
      period_(period),
      gate_(gate_interval(tclk_, period)) {
  if (period_ == 0) {
    throw std::invalid_argument("DelayInjector: PERIOD must be >= 1");
  }
  if (tclk_ == 0) {
    throw std::invalid_argument("DelayInjector: clock too fast for ps grid");
  }
}

DelayInjector::DelayInjector(std::unique_ptr<net::LatencyDistribution> dist)
    : mode_(Mode::kDistribution), dist_(std::move(dist)) {
  if (!dist_) {
    throw std::invalid_argument("DelayInjector: null distribution");
  }
}

void DelayInjector::set_period(std::uint64_t period) {
  if (mode_ != Mode::kPeriodGate) {
    throw std::logic_error("DelayInjector: set_period in distribution mode");
  }
  if (period == 0) {
    throw std::invalid_argument("DelayInjector: PERIOD must be >= 1");
  }
  const sim::Time interval = gate_interval(tclk_, period);
  period_ = period;
  gate_.set_interval(interval);
}

sim::Time DelayInjector::admit(sim::Time now) {
  sim::Time out = now;
  if (mode_ == Mode::kPeriodGate) {
    // PERIOD == 1: every cycle is admissible; transparent (the vanilla
    // prototype), so skip even the cycle-boundary alignment.
    out = period_ == 1 ? now : gate_.request(now);
  } else {
    const sim::Time extra = dist_->sample();
    if (extra > sim::kTimeNever - now) {
      throw std::logic_error(
          "DelayInjector::admit: now + sampled delay overflows simulated "
          "time (now=" + std::to_string(now) + " ps, delay=" +
          std::to_string(extra) + " ps)");
    }
    out = now + extra;
  }
  ++admitted_;
  added_delay_.add(sim::to_us(out - now));
  return out;
}

}  // namespace tfsim::nic
