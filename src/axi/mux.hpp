// Round-robin multiplexer: merges N upstream AXI4-Stream channels onto one
// downstream channel.  In ThymesisFlow the egress multiplexer sits directly
// downstream of the delay injector; fairness here is what produces the
// "equal division of bandwidth" behaviour in the MCBN contention experiment.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "axi/module.hpp"
#include "axi/stream.hpp"

namespace tfsim::axi {

class RoundRobinMux final : public Module {
 public:
  RoundRobinMux(std::string name, std::vector<Wire*> inputs, Wire& out);

  void eval() override;
  void tick(std::uint64_t cycle) override;
  /// eval() reads every input's VALID/payload and the output's READY.
  std::optional<std::vector<const Wire*>> inputs() const override {
    // Sized up front: gcc 12 flags a push_back onto the copied range as a
    // potential null dereference at -O2.
    std::vector<const Wire*> ins(inputs_.size() + 1, &out_);
    std::copy(inputs_.begin(), inputs_.end(), ins.begin());
    return ins;
  }
  /// Arbiter state (rr_, the held grant) only changes when a handshake
  /// fires or a wire moves; with frozen wires and nothing firing the grant
  /// is stable, so the mux is idle.
  std::uint64_t next_activity(std::uint64_t next) const override {
    if (out_.fire()) return next;
    for (const Wire* w : inputs_) {
      if (w->fire()) return next;
    }
    return kIdle;
  }

  std::size_t fan_in() const { return inputs_.size(); }
  /// Beats forwarded from input i.
  std::uint64_t transfers(std::size_t i) const { return transfers_.at(i); }

 private:
  /// First valid input at or after rr_, if any.
  std::size_t pick() const;
  /// The input driving the output this cycle: while an offer made earlier is
  /// still un-accepted the original grant is held (switching would rewrite
  /// the stalled beat, violating AXI payload stability); otherwise pick().
  std::size_t grant() const;

  std::vector<Wire*> inputs_;
  Wire& out_;
  std::size_t rr_ = 0;  ///< next input to consider (rotates after a grant)
  bool offering_ = false;  ///< un-accepted downstream offer outstanding
  std::size_t held_ = 0;   ///< grant locked while offering_
  std::vector<std::uint64_t> transfers_;
};

}  // namespace tfsim::axi
