// Cycle-level testbench: owns wires and modules, runs the two-phase
// (combinational settle, then clock edge) simulation loop.
//
// Two settle schedulers are available (DESIGN.md section 10):
//
//  * SettleMode::kActivity (default) -- the activity-driven scheduler.
//    Every module declares its input wires (Module::inputs), so each settle
//    re-evaluates only modules whose inputs changed since the last pass,
//    seeded from the dirty-wire set (WireChangeLog) and from modules whose
//    declared next_activity() horizon arrived.  Between cycles, run()
//    fast-forwards over provably quiescent gaps -- no wire firing and every
//    module's horizon in the future -- in one jump (Module::advance), which
//    is what makes the paper's high-PERIOD regimes (Fig. 4, the
//    validation_injector calibration) cheap: a PERIOD=1000 gate costs ~2
//    settled cycles per period instead of 1000.
//  * SettleMode::kNaive -- the original exhaustive loop (every module
//    re-evaluated every pass, every cycle stepped).  Kept as the reference
//    implementation: the golden-trace differential suite
//    (tests/axi/sched_equiv_test.cpp, tests/property/axi_sched_fuzz_test.cpp)
//    proves both modes produce byte-identical per-cycle wire traces.  A
//    bench selects it through the constructor.
//
// Every wire a testbench creates is bound to a WireChecker, and every module
// it adds is handed the testbench's ViolationSink, so the AXI4-Stream
// protocol assertions (see checker.hpp) run by default.  The default mode is
// strict -- any violation throws ProtocolError, like a SystemVerilog
// assertion aborting the simulation; tests that inject bugs on purpose
// construct the bench with CheckMode::kCollect and inspect sink().
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "axi/checker.hpp"
#include "axi/module.hpp"
#include "axi/stream.hpp"

namespace tfsim::axi {

/// Settle-loop scheduler selection.
enum class SettleMode {
  kNaive,     ///< exhaustive: every module, every pass, every cycle
  kActivity,  ///< sensitivity-list settle + quiescent-gap fast-forward
};

const char* to_string(SettleMode mode);

class Testbench : public ModuleScheduler {
 public:
  explicit Testbench(CheckMode mode = CheckMode::kStrict,
                     SettleMode settle = SettleMode::kActivity) {
    sink_.set_mode(mode);
    settle_mode_ = settle;
  }
  // Wires hold a pointer into change_log_ and modules point back at the
  // bench, so the testbench must never move.
  Testbench(const Testbench&) = delete;
  Testbench& operator=(const Testbench&) = delete;
  virtual ~Testbench() = default;

  /// Create a wire owned by the testbench.  A WireChecker is bound to it
  /// automatically (protocol assertions are on by default).
  Wire& wire(std::string label);

  /// Construct and register a module.  Returns a reference with the
  /// testbench retaining ownership.  The testbench's violation sink is
  /// attached so self-checking modules report into it, and the module's
  /// sensitivity list is wired into the settle scheduler.
  template <typename M, typename... Args>
  M& add(Args&&... args) {
    auto mod = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *mod;
    modules_.push_back(std::move(mod));
    register_module(ref);
    return ref;
  }

  /// Watch a region (entry wires -> exit wires) for beat conservation:
  /// beats-in == beats-out, unmodified, in per-TDEST order.
  /// `allowed_in_flight` is the region's legitimate internal buffering
  /// (FIFO capacity etc.), checked by finish_checks().
  FlowChecker& watch_flow(std::string name, std::vector<const Wire*> entries,
                          std::vector<const Wire*> exits,
                          std::uint64_t allowed_in_flight = 0);

  /// Advance one clock cycle: settle combinational logic, then tick.
  /// Throws std::runtime_error naming the still-toggling modules if the
  /// combinational loop does not converge (a genuine combinational cycle in
  /// the module graph), and ProtocolError in strict mode when a checker
  /// fires.
  void step();

  /// Advance n cycles.  In kActivity mode, provably quiescent gaps are
  /// fast-forwarded in one jump; cycle(), all monitor statistics, and every
  /// checker observation end up exactly as if each cycle had been stepped.
  void run(std::uint64_t n);

  /// End-of-test assertions: unterminated packets (WireChecker) and beat
  /// conservation (FlowChecker).  Call after the last step().
  void finish_checks();

  std::uint64_t cycle() const { return cycle_; }

  SettleMode settle_mode() const { return settle_mode_; }

  /// Scheduler instrumentation (tests and bench/axi_microbench).
  std::uint64_t eval_calls() const { return eval_calls_; }
  std::uint64_t stepped_cycles() const { return stepped_cycles_; }
  std::uint64_t skipped_cycles() const { return skipped_cycles_; }

  ViolationSink& sink() { return sink_; }
  const ViolationSink& sink() const { return sink_; }
  void set_check_mode(CheckMode mode) { sink_.set_mode(mode); }

  /// ModuleScheduler: mark a module due at the next settle (out-of-band
  /// state change, e.g. RateGate::set_period or Source::push).
  void wake_module(std::size_t module_index) override;

 private:
  void register_module(Module& m);
  void settle();
  void settle_naive();
  void settle_activity();
  void schedule(std::size_t module_index);
  void schedule_wire_listeners(std::uint32_t wire_index);
  bool any_wire_fires() const;
  [[noreturn]] void throw_non_convergence(
      const std::vector<std::size_t>& culprits) const;

  ViolationSink sink_;
  SettleMode settle_mode_ = SettleMode::kActivity;
  std::vector<std::unique_ptr<Wire>> wires_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<WireChecker*> wire_checkers_;
  std::vector<FlowChecker*> flow_checkers_;
  std::uint64_t cycle_ = 0;

  WireChangeLog change_log_;
  std::vector<std::vector<std::size_t>> listeners_;  ///< wire -> modules
  std::vector<std::size_t> catch_all_;  ///< modules sensitive to every wire
  std::vector<std::uint64_t> wake_at_;  ///< per-module activity horizon
  // Settle worklist scratch (member vectors to avoid per-cycle allocation).
  std::vector<std::uint8_t> queued_;
  std::vector<std::size_t> pending_;
  std::vector<std::size_t> next_pending_;
  std::vector<std::size_t> culprits_;
  bool last_step_fired_ = false;

  std::uint64_t eval_calls_ = 0;
  std::uint64_t stepped_cycles_ = 0;
  std::uint64_t skipped_cycles_ = 0;
};

}  // namespace tfsim::axi
