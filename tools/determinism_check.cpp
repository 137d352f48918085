// Determinism self-check: run the same simulation twice with identical
// seeds and diff the stats output line by line.
//
// The event engine promises (time, insertion-order) execution; the RNG is
// seeded explicitly everywhere; no container with nondeterministic iteration
// order may leak into results.  Any ordering or iteration nondeterminism --
// an unordered_map walked into a report, a priority-queue tie broken by
// pointer value, uninitialised padding hashed into a digest -- shows up here
// as a diff between two runs that must be bit-for-bit identical.
//
// Exercised scenarios:
//   1. event engine: thousands of events with deliberately colliding
//      timestamps, scheduled from nested callbacks, some cancelled; the
//      execution order is folded into a digest;
//   2. RNG-driven statistics: OnlineStats + Histogram summaries over every
//      distribution the workloads use;
//   3. the cycle-level AXI egress pipeline (router -> RateGate -> mux) with
//      probabilistic source/sink, digesting every arrival, monitor gaps,
//      and the protocol-checker verdict;
//   4. the settle-scheduler guard: the same AXI pipeline under
//      SettleMode::kNaive and kActivity must produce identical arrival and
//      monitor digests, in both the every-cycle-stepped and the
//      fast-forwarded regime (DESIGN.md section 10);
//   5. the parallel sweep runner: the same batch of independent
//      engine+RNG simulations executed serially and on a 4-worker pool
//      must produce byte-identical result vectors (the property every
//      TFSIM_JOBS>1 figure sweep relies on);
//   6. unused: the number stays free so 7-11 match their references in
//      DESIGN.md, EXPERIMENTS.md and the CI workflow;
//   7. the fault layer: a small (period x loss x flap) resilience matrix
//      with NIC retry/replay active, computed serially and on an 8-worker
//      pool, must produce byte-identical probe rows -- the seeded fault
//      streams are pure functions of the spec, never of scheduling.
//   8-11. the golden table's reference runs on per-node calendars
//      (tools/golden_runs.hpp): seeded traffic over a ring fabric; a 2x2
//      leaf/spine with shallow kDrop buffers, which must tail-drop; a
//      compressed serving_diurnal with a mid-run lender kill, which must
//      fail over; and a compressed chaos_rack with the health detector,
//      which must re-stripe and migrate.  tests/golden/digests.txt pins
//      their digests at seeds 1 and 42.
//
// Exit code 0 when both runs agree, 1 with a diff otherwise.  Wired into
// ctest and the `determinism_check` CMake target.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "axi/endpoints.hpp"
#include "axi/fifo.hpp"
#include "axi/monitor.hpp"
#include "axi/mux.hpp"
#include "axi/rate_gate.hpp"
#include "axi/router.hpp"
#include "axi/testbench.hpp"
#include "core/resilience.hpp"
#include "core/serving.hpp"
#include "golden_runs.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/sweep.hpp"

namespace {

using tfsim::sim::Engine;
using tfsim::sim::Histogram;
using tfsim::sim::OnlineStats;
using tfsim::sim::Rng;

/// FNV-1a, so ordering differences anywhere in a sequence change the digest.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

void scenario_engine(std::uint64_t seed, std::ostringstream& out) {
  Engine engine;
  Rng rng(seed);
  Digest order;
  OnlineStats times;
  std::uint64_t fired = 0;
  std::vector<Engine::EventId> cancellable;

  // Seed a burst of events on a coarse time grid so many share timestamps;
  // each event reschedules children from inside its callback, the pattern
  // that exposed insertion-order bugs in calendar queues.
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
    order.add(id);
    order.add(engine.now());
    times.add(static_cast<double>(engine.now()));
    ++fired;
    if (id < 4000) {
      const std::uint64_t t = rng.uniform_u64(16);  // heavy collisions
      engine.schedule_in(t, [&fire, id] { fire(id + 1000); });
      if (id % 7 == 0) {
        cancellable.push_back(
            engine.schedule_in(t + 1, [&fire, id] { fire(id + 100000); }));
      }
      if (id % 11 == 3 && !cancellable.empty()) {
        engine.cancel(cancellable.back());
        cancellable.pop_back();
      }
    }
  };
  for (std::uint64_t i = 0; i < 64; ++i) {
    engine.schedule_at(rng.uniform_u64(8), [&fire, i] { fire(i); });
  }
  engine.run();

  out << "engine: fired=" << fired << " executed=" << engine.executed()
      << " order_digest=" << order.h << " time_mean=" << times.mean()
      << " time_max=" << times.max() << "\n";
}

void scenario_stats(std::uint64_t seed, std::ostringstream& out) {
  Rng rng(seed);
  Histogram hist;
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double v = 1.0 + rng.exponential(50.0) + rng.pareto(1.0, 2.5) +
                     rng.lognormal(1.0, 0.5);
    hist.add(v);
    stats.add(v);
  }
  out << "stats: " << hist.summary() << " mean=" << stats.mean()
      << " stddev=" << stats.stddev() << "\n";
}

void scenario_axi(std::uint64_t seed, std::ostringstream& out) {
  namespace axi = tfsim::axi;
  axi::Testbench tb;  // strict: nondeterministic protocol state would throw
  axi::Wire& in = tb.wire("in");
  axi::Wire& r0 = tb.wire("r0");
  axi::Wire& g0 = tb.wire("g0");
  axi::Wire& f0 = tb.wire("f0");
  axi::Wire& outw = tb.wire("out");
  axi::Source::Config scfg;
  scfg.saturate = true;
  scfg.valid_probability = 0.7;
  scfg.seed = seed;
  tb.add<axi::Source>("src", in, scfg);
  tb.add<axi::Router>("router", in, std::vector<axi::Wire*>{&r0});
  tb.add<axi::RateGate>("gate", r0, g0, 3);
  tb.add<axi::Fifo>("fifo", g0, f0, 8);
  tb.add<axi::RoundRobinMux>("mux", std::vector<axi::Wire*>{&f0}, outw);
  axi::Sink::Config kcfg;
  kcfg.ready_probability = 0.8;
  kcfg.seed = seed + 1;
  auto& sink = tb.add<axi::Sink>("sink", outw, kcfg);
  auto& mon = tb.add<axi::Monitor>("mon", outw, /*check_id_order=*/true);
  tb.run(5000);

  Digest arrivals;
  for (const auto& a : sink.arrivals()) {
    arrivals.add(a.cycle);
    arrivals.add(a.beat.id);
  }
  out << "axi: received=" << sink.received()
      << " arrival_digest=" << arrivals.h
      << " gap_mean=" << mon.gap_stats().mean()
      << " gap_max=" << mon.gap_stats().max()
      << " protocol=" << (tb.sink().clean() ? "clean" : "violated") << "\n";
}

/// Returns false when the naive and activity settle schedulers diverge on
/// the same pipeline (see DESIGN.md section 10: the two modes must be
/// byte-identical in every observable).  Covers both regimes: a
/// probabilistic source/sink pair (every cycle stepped, sensitivity-list
/// settle only) and a deterministic saturated gate at PERIOD=50 (most
/// cycles fast-forwarded).
bool scenario_settle_equiv(std::uint64_t seed, std::ostringstream& out) {
  namespace axi = tfsim::axi;

  const auto digest_run = [seed](axi::SettleMode mode, double valid_p,
                                 double ready_p, std::uint64_t period,
                                 std::uint64_t& skipped) {
    axi::Testbench tb(axi::CheckMode::kStrict, mode);
    axi::Wire& in = tb.wire("in");
    axi::Wire& r0 = tb.wire("r0");
    axi::Wire& g0 = tb.wire("g0");
    axi::Wire& f0 = tb.wire("f0");
    axi::Wire& outw = tb.wire("out");
    axi::Source::Config scfg;
    scfg.saturate = true;
    scfg.valid_probability = valid_p;
    scfg.seed = seed;
    tb.add<axi::Source>("src", in, scfg);
    tb.add<axi::Router>("router", in, std::vector<axi::Wire*>{&r0});
    tb.add<axi::RateGate>("gate", r0, g0, period);
    tb.add<axi::Fifo>("fifo", g0, f0, 8);
    tb.add<axi::RoundRobinMux>("mux", std::vector<axi::Wire*>{&f0}, outw);
    axi::Sink::Config kcfg;
    kcfg.ready_probability = ready_p;
    kcfg.seed = seed + 1;
    auto& sink = tb.add<axi::Sink>("sink", outw, kcfg);
    auto& mon = tb.add<axi::Monitor>("mon", outw, /*check_id_order=*/true);
    tb.run(5000);
    skipped = tb.skipped_cycles();
    Digest d;
    for (const auto& a : sink.arrivals()) {
      d.add(a.cycle);
      d.add(a.beat.id);
    }
    d.add(sink.received());
    d.add(mon.fires());
    d.add(mon.gap_stats().count());
    d.add(static_cast<std::uint64_t>(mon.gap_stats().mean() * 1e6));
    return d.h;
  };

  bool match = true;
  std::uint64_t naive_skipped = 0, act_skipped = 0;
  const std::uint64_t prob_naive =
      digest_run(axi::SettleMode::kNaive, 0.7, 0.8, 3, naive_skipped);
  const std::uint64_t prob_act =
      digest_run(axi::SettleMode::kActivity, 0.7, 0.8, 3, act_skipped);
  match = match && prob_naive == prob_act && naive_skipped == 0;
  const std::uint64_t gated_naive =
      digest_run(axi::SettleMode::kNaive, 1.0, 1.0, 50, naive_skipped);
  const std::uint64_t gated_act =
      digest_run(axi::SettleMode::kActivity, 1.0, 1.0, 50, act_skipped);
  // The deterministic PERIOD=50 run must actually have exercised the
  // fast-forward path, or the equivalence above proved nothing.
  match = match && gated_naive == gated_act && act_skipped > 0;

  out << "settle: prob_digest=" << prob_act << " gated_digest=" << gated_act
      << " gated_skipped=" << act_skipped
      << " naive==activity=" << (match ? "yes" : "NO") << "\n";
  if (!match) {
    std::fprintf(stderr,
                 "determinism_check: settle schedulers diverged "
                 "(prob %llu vs %llu, gated %llu vs %llu, skipped %llu)\n",
                 static_cast<unsigned long long>(prob_naive),
                 static_cast<unsigned long long>(prob_act),
                 static_cast<unsigned long long>(gated_naive),
                 static_cast<unsigned long long>(gated_act),
                 static_cast<unsigned long long>(act_skipped));
  }
  return match;
}

/// Returns false if the serial and parallel sweeps diverge (a hard failure,
/// independent of the run-vs-run diff: both runs would diverge identically).
bool scenario_sweep(std::uint64_t seed, std::ostringstream& out) {
  using tfsim::sim::SweepRunner;

  auto job = [seed](std::size_t i) {
    Engine engine;
    Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
    Digest d;
    std::uint64_t fired = 0;
    std::function<void()> hop = [&] {
      ++fired;
      d.add(engine.now());
      if (fired < 800) engine.schedule_in(1 + rng.uniform_u64(11), hop);
    };
    for (int c = 0; c < 3; ++c) engine.schedule_at(rng.uniform_u64(4), hop);
    engine.run();
    std::ostringstream r;
    r << i << ":" << fired << ":" << engine.now() << ":" << d.h;
    return r.str();
  };

  const std::vector<std::string> serial = SweepRunner(1).run(16, job);
  const std::vector<std::string> parallel = SweepRunner(4).run(16, job);

  Digest d;
  for (const auto& s : serial) {
    for (const char c : s) d.add(static_cast<std::uint64_t>(c));
  }
  const bool match = serial == parallel;
  out << "sweep: points=" << serial.size() << " digest=" << d.h
      << " serial==parallel=" << (match ? "yes" : "NO") << "\n";
  if (!match) {
    for (std::size_t i = 0; i < serial.size(); ++i) {
      if (serial[i] != parallel[i]) {
        std::fprintf(stderr,
                     "determinism_check: sweep point %zu diverged\n"
                     "  serial:   %s\n  parallel: %s\n",
                     i, serial[i].c_str(), parallel[i].c_str());
      }
    }
  }
  return match;
}

/// Returns false when the serial and 8-worker fault matrices diverge.  Each
/// point builds its own Cluster with loss/corruption/flaps active, so this
/// covers the whole fault stack: FaultPlan streams, FaultyLink decoration,
/// NIC retry/backoff, and the abandonment/detach bookkeeping.
bool scenario_faults(std::uint64_t seed, std::ostringstream& out) {
  namespace core = tfsim::core;
  namespace net = tfsim::net;
  namespace sim = tfsim::sim;

  core::FaultMatrixOptions opts;
  opts.periods = {1, 100};
  opts.loss_rates = {0.0, 1e-3, 1e-2};
  opts.flap_schedules = {
      {},
      {net::FlapSpec{sim::from_us(100.0), sim::from_us(50.0), 0.0}},
  };
  opts.corrupt_rate = 1e-3;
  opts.seed = seed;
  opts.accesses = 600;

  const auto digest_rows = [](const std::vector<core::FaultProbe>& probes) {
    std::ostringstream rows;
    for (const auto& p : probes) {
      rows << p.point.period << "," << p.point.loss_rate << ","
           << p.point.flap_schedule << "," << core::to_string(p.health) << ","
           << p.completed << "," << p.failed << "," << p.retries << ","
           << p.abandoned << "," << p.crc_drops << "," << p.frames_lost << ","
           << p.recovered << "," << p.detached_lenders << ","
           << p.avg_latency_us << "\n";
    }
    return rows.str();
  };

  const auto serial_probes = core::assess_fault_matrix(opts, 1);
  const std::string serial = digest_rows(serial_probes);
  const std::string parallel = digest_rows(core::assess_fault_matrix(opts, 8));

  Digest d;
  std::uint64_t retried = 0;
  for (const char c : serial) d.add(static_cast<std::uint64_t>(c));
  for (const auto& p : serial_probes) retried += p.retries;
  const bool match = serial == parallel && retried > 0;
  out << "faults: digest=" << d.h << " retries=" << retried
      << " serial==parallel=" << (serial == parallel ? "yes" : "NO") << "\n";
  if (serial != parallel) {
    std::fprintf(stderr,
                 "determinism_check: fault matrix diverged\n"
                 "--- serial ---\n%s--- parallel ---\n%s",
                 serial.c_str(), parallel.c_str());
  } else if (retried == 0) {
    std::fprintf(stderr,
                 "determinism_check: fault matrix exercised no retries -- "
                 "the determinism claim covered nothing\n");
  }
  return match;
}

// Scenarios 8-11 are reference runs of the golden digest table
// (tools/golden_runs.hpp, tests/golden/digests.txt) on per-node calendars;
// run_all's two passes catch in-process nondeterminism the table cannot,
// and each scenario fails when the path it exists for went unexercised.

// Scenario 8: seeded cross-domain traffic over a ring fabric.
void scenario_pdes(std::uint64_t seed, std::ostringstream& out) {
  const tfsim::golden::Run r = tfsim::golden::ring_fabric(seed);
  out << "pdes: digest=" << r.digest() << " events=" << r.events
      << " windows=" << r.windows << "\n";
}

// Scenario 9: the leaf/spine fabric -- routing-table forwarding,
// deterministic ECMP striping, and the kDrop admission path under
// deliberately shallow buffers.
bool scenario_fabric(std::uint64_t seed, std::ostringstream& out) {
  const tfsim::golden::Run r = tfsim::golden::leafspine_fabric(seed);
  out << "fabric: digest=" << r.digest() << " drops=" << r.switch_drops
      << " events=" << r.events << " windows=" << r.windows << "\n";
  if (r.switch_drops == 0) {
    std::fprintf(stderr,
                 "determinism_check: fabric scenario saw no switch drops -- "
                 "the kDrop admission path went unexercised\n");
  }
  return r.switch_drops > 0;
}

// Scenario 10: the open-loop serving harness over a compressed
// serving_diurnal (one 2 ms diurnal cycle, the lender kill at its peak).
bool scenario_serving(std::uint64_t seed, std::ostringstream& out) {
  auto spec = tfsim::golden::compressed_serving();
  spec.traffic.seed = seed;
  const tfsim::core::ServingReport r = tfsim::golden::serve(spec).report;
  out << "serving: digest=" << r.digest << " completed=" << r.totals.completed
      << " failovers=" << r.failovers << "\n";
  if (r.failovers == 0) {
    std::fprintf(stderr,
                 "determinism_check: serving scenario saw no failovers -- "
                 "the mid-run kill path went unexercised\n");
  }
  return r.failovers > 0;
}

// Scenario 11: fabric chaos with the online detector over a half-length
// chaos_rack timeline, so gray-lender detection, ECMP re-striping,
// migration and rejoin probing all fire inside the run.
bool scenario_chaos(std::uint64_t seed, std::ostringstream& out) {
  auto spec = tfsim::golden::compressed_chaos();
  spec.traffic.seed = seed;
  const tfsim::core::ServingReport r = tfsim::golden::serve(spec).report;
  out << "chaos: digest=" << r.digest << " completed=" << r.totals.completed
      << " restripes=" << r.restripes << " failovers=" << r.failovers
      << " rejoins=" << r.rejoins << " gray_inflated=" << r.gray_inflated
      << " chaos_drops=" << r.switch_chaos_drops << "\n";
  const bool reacted = r.restripes > 0 && r.failovers > 0;
  if (!reacted) {
    std::fprintf(stderr,
                 "determinism_check: chaos scenario never re-striped or "
                 "migrated -- the detector reaction paths went unexercised\n");
  }
  return reacted;
}

std::string run_all(std::uint64_t seed, bool& sweep_ok) {
  std::ostringstream out;
  scenario_engine(seed, out);
  scenario_stats(seed, out);
  scenario_axi(seed, out);
  sweep_ok = scenario_settle_equiv(seed, out) && sweep_ok;
  sweep_ok = scenario_sweep(seed, out) && sweep_ok;
  sweep_ok = scenario_faults(seed, out) && sweep_ok;
  scenario_pdes(seed, out);
  sweep_ok = scenario_fabric(seed, out) && sweep_ok;
  sweep_ok = scenario_serving(seed, out) && sweep_ok;
  sweep_ok = scenario_chaos(seed, out) && sweep_ok;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0xD15EA5EULL;
  if (argc > 1) {
    char* end = nullptr;
    seed = std::strtoull(argv[1], &end, 0);
    if (end == argv[1] || *end != '\0') {
      std::fprintf(stderr, "determinism_check: invalid seed '%s'\n", argv[1]);
      return 2;
    }
  }
  bool sweep_ok = true;
  const std::string first = run_all(seed, sweep_ok);
  const std::string second = run_all(seed, sweep_ok);
  if (!sweep_ok) {
    std::fprintf(stderr,
                 "determinism_check: FAILED -- a scenario check failed (a "
                 "parallel sweep diverged from serial or a path went "
                 "unexercised)\n%s",
                 first.c_str());
    return 1;
  }
  if (first == second) {
    std::printf("determinism_check: OK (seed=%llu)\n%s",
                static_cast<unsigned long long>(seed), first.c_str());
    return 0;
  }
  std::fprintf(stderr,
               "determinism_check: FAILED -- identical seeds diverged\n"
               "--- run 1 ---\n%s--- run 2 ---\n%s",
               first.c_str(), second.c_str());
  return 1;
}
