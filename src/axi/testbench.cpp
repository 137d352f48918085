#include "axi/testbench.hpp"

#include <algorithm>
#include <sstream>

namespace tfsim::axi {

const char* to_string(SettleMode mode) {
  switch (mode) {
    case SettleMode::kNaive:
      return "naive";
    case SettleMode::kActivity:
      return "activity";
  }
  return "unknown";
}

Wire& Testbench::wire(std::string label) {
  auto w = std::make_unique<Wire>();
  w->label = std::move(label);
  w->attach_change_log(&change_log_, change_log_.add_wire());
  listeners_.emplace_back();
  Wire& ref = *w;
  wires_.push_back(std::move(w));
  auto& checker = add<WireChecker>("check(" + ref.label + ")", ref, sink_);
  wire_checkers_.push_back(&checker);
  return ref;
}

void Testbench::register_module(Module& m) {
  const std::size_t index = modules_.size() - 1;
  m.attach_sink(&sink_);
  m.attach_scheduler(this, index);
  wake_at_.push_back(0);  // newly added modules are due at the next settle
  queued_.push_back(0);
  const auto ins = m.inputs();
  if (!ins.has_value()) {
    // Unknown sensitivity: re-evaluate on every wire change, like the naive
    // loop would.  Keeps hand-rolled test modules correct by default.
    catch_all_.push_back(index);
    return;
  }
  bool foreign = false;
  for (const Wire* w : *ins) {
    if (w == nullptr || w->change_log() != &change_log_) {
      foreign = true;  // a wire this bench does not track: be conservative
      continue;
    }
    listeners_[w->index()].push_back(index);
  }
  if (foreign) catch_all_.push_back(index);
}

FlowChecker& Testbench::watch_flow(std::string name,
                                   std::vector<const Wire*> entries,
                                   std::vector<const Wire*> exits,
                                   std::uint64_t allowed_in_flight) {
  auto& checker = add<FlowChecker>(std::move(name), std::move(entries),
                                   std::move(exits), sink_);
  checker.set_allowed_in_flight(allowed_in_flight);
  flow_checkers_.push_back(&checker);
  return checker;
}

void Testbench::wake_module(std::size_t module_index) {
  wake_at_[module_index] = 0;
}

void Testbench::schedule(std::size_t module_index) {
  if (queued_[module_index] == 0) {
    queued_[module_index] = 1;
    next_pending_.push_back(module_index);
  }
}

void Testbench::schedule_wire_listeners(std::uint32_t wire_index) {
  for (const std::size_t m : listeners_[wire_index]) schedule(m);
  for (const std::size_t m : catch_all_) schedule(m);
}

void Testbench::throw_non_convergence(
    const std::vector<std::size_t>& culprits) const {
  std::ostringstream os;
  os << "Testbench: combinational logic did not converge after "
     << (2 * modules_.size() + 4) << " passes; still-toggling module(s):";
  if (culprits.empty()) {
    os << " (none identified)";
  } else {
    for (std::size_t i = 0; i < culprits.size(); ++i) {
      os << (i == 0 ? " " : ", ") << modules_[culprits[i]]->name();
    }
  }
  throw std::runtime_error(os.str());
}

void Testbench::settle_naive() {
  // Fixpoint iteration: each pass lets valid/ready propagate one module
  // further.  An acyclic handshake graph converges within |modules| passes;
  // allow a generous margin before declaring a combinational loop.
  const std::size_t limit = 2 * modules_.size() + 4;
  for (std::size_t iter = 0; iter < limit; ++iter) {
    change_log_.clear();
    culprits_.clear();
    for (std::size_t i = 0; i < modules_.size(); ++i) {
      const std::size_t before = change_log_.changed().size();
      ++eval_calls_;
      modules_[i]->eval();
      if (change_log_.changed().size() > before) culprits_.push_back(i);
    }
    if (change_log_.empty()) return;
  }
  throw_non_convergence(culprits_);
}

void Testbench::settle_activity() {
  // Seed the worklist: modules whose activity horizon arrived, plus
  // listeners of wires poked since the last settle (external stimulus
  // between step()s, or a tick that drove a wire directly).
  next_pending_.clear();
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    if (wake_at_[i] <= cycle_) schedule(i);
  }
  for (const std::uint32_t w : change_log_.changed()) {
    schedule_wire_listeners(w);
  }
  change_log_.clear();

  const std::size_t limit = 2 * modules_.size() + 4;
  std::size_t passes = 0;
  while (!next_pending_.empty()) {
    if (++passes > limit) throw_non_convergence(culprits_);
    pending_.swap(next_pending_);
    next_pending_.clear();
    // Evaluate in module registration order (the order the naive loop uses)
    // and allow this pass's wire changes to re-queue its own members.
    std::sort(pending_.begin(), pending_.end());
    for (const std::size_t i : pending_) queued_[i] = 0;
    culprits_.clear();
    for (const std::size_t i : pending_) {
      const std::size_t before = change_log_.changed().size();
      ++eval_calls_;
      modules_[i]->eval();
      if (change_log_.changed().size() > before) culprits_.push_back(i);
    }
    for (const std::uint32_t w : change_log_.changed()) {
      schedule_wire_listeners(w);
    }
    change_log_.clear();
  }
}

void Testbench::settle() {
  if (settle_mode_ == SettleMode::kNaive) {
    settle_naive();
  } else {
    settle_activity();
  }
}

bool Testbench::any_wire_fires() const {
  for (const auto& w : wires_) {
    if (w->fire()) return true;
  }
  return false;
}

void Testbench::step() {
  settle();
  for (auto& m : modules_) m->tick(cycle_);
  ++stepped_cycles_;
  if (settle_mode_ == SettleMode::kActivity) {
    // Refresh every module's activity horizon against the post-tick state;
    // run() fast-forwards to the earliest one when nothing fires.
    last_step_fired_ = any_wire_fires();
    const std::uint64_t next = cycle_ + 1;
    for (std::size_t i = 0; i < modules_.size(); ++i) {
      wake_at_[i] = modules_[i]->next_activity(next);
    }
  }
  ++cycle_;
}

void Testbench::run(std::uint64_t n) {
  const std::uint64_t end = cycle_ + n;
  while (cycle_ < end) {
    step();
    if (settle_mode_ != SettleMode::kActivity) continue;
    // A quiescent gap requires: no handshake in flight (a firing wire
    // transfers a beat every cycle), no wire poked outside settle (a
    // bug-injection module driving wires from tick()), and every module's
    // next activity strictly in the future.
    if (last_step_fired_ || !change_log_.empty()) continue;
    std::uint64_t horizon = Module::kIdle;
    for (const std::uint64_t w : wake_at_) horizon = std::min(horizon, w);
    if (horizon <= cycle_) continue;
    const std::uint64_t to = std::min(horizon, end);
    if (to <= cycle_) continue;
    const std::uint64_t gap = to - cycle_;
    for (auto& m : modules_) m->advance(gap);
    skipped_cycles_ += gap;
    cycle_ += gap;
  }
}

void Testbench::finish_checks() {
  for (WireChecker* c : wire_checkers_) c->finish(cycle_);
  for (FlowChecker* c : flow_checkers_) c->finish(cycle_);
}

}  // namespace tfsim::axi
