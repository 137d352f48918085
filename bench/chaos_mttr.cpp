// Chaos MTTR bench: scripted gray failures and fabric chaos over the
// leaf/spine serving rack, scored as blast radius and time-to-recover.
//
// The scenario (scenarios/chaos_rack by default) runs the serving tier
// through a seeded chaos timeline: a gray lender that silently serves 8x
// slower, a browned-out leaf->spine egress port, and a hard spine kill.
// The same scenario runs twice in-process:
//
//   detector on  -- each source runs the ctrl::HealthDetector over its own
//                   completions; latency-dominated sickness re-stripes once
//                   then migrates off the gray lender *before* the timeout
//                   budget burns, and probes rejoin it after recovery;
//   detector off -- the timeout-only baseline: nothing moves until
//                   `failover_threshold` consecutive 200us timeouts.
//
// Every non-recover chaos event is scored against the SLO window series:
// the p99-degradation window (total length of consecutive SLO windows from
// the event start whose p99 misses target or which complete nothing),
// time-to-recover (event start -> first compliant window), and blast
// radius (failed + shed + rejected inside the degraded windows).  The
// headline acceptance is that the detector path recovers from the gray
// lender with a *strictly* shorter p99-degradation window than the
// timeout-only baseline -- that delta is the entire point of online
// failure detection.
//
// Each mode's digest covers every observable of its report; the golden
// digest table (tests/golden/digests.txt) pins both for the CI smoke.
//
// Sizing: TFSIM_SERVING_US compresses the horizon, scaling the chaos
// timeline, the SLO windows, and any lender kill proportionally so the
// experiment keeps its shape.  Results land in chaos_mttr.csv plus
// BENCH_chaos.json (the CI artifact), alongside the resolved scenario.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/serving.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/config.hpp"
#include "sim/units.hpp"

using namespace tfsim;

namespace {

core::ServingReport run_once(const scenario::ScenarioSpec& spec) {
  node::Cluster cluster(spec);
  return core::run_serving(cluster);
}

/// Per chaos event: how long the windowed p99 stayed out of spec and what
/// it cost while it was.
struct EventScore {
  std::string label;        ///< "kind/target"
  double start_us = 0.0;    ///< event start in sim time
  double degraded_us = 0.0; ///< sum of degraded SLO-window lengths
  double ttr_us = 0.0;      ///< event start -> first compliant window
  std::uint64_t blast = 0;  ///< failed + shed + rejected while degraded
  bool recovered = false;   ///< a compliant window exists before horizon
};

/// Walk the SLO window series from the event start to the first compliant
/// window (p99 within target and at least one completion).  Degradation
/// caused by a *later* event is attributed to that event, not this one,
/// because the walk stops at the first recovery.
EventScore score_event(const scenario::ChaosWindow& ev,
                       const core::ServingReport& r, double window_us,
                       double horizon_us) {
  EventScore s;
  s.label = scenario::to_string(ev.kind) + "/" + ev.target;
  s.start_us = sim::to_us(ev.start);
  for (const core::WindowStats& w : r.windows) {
    const double ws = sim::to_us(w.start);
    if (ws + window_us <= s.start_us) continue;  // ends before the event
    const bool compliant =
        w.completed > 0 &&
        (r.targets.p99_us <= 0.0 || w.p99_us <= r.targets.p99_us);
    if (compliant) {
      s.recovered = true;
      s.ttr_us = std::max(0.0, ws - s.start_us);
      return s;
    }
    s.degraded_us += window_us;
    s.blast += w.failed + w.shed + w.rejected;
  }
  s.ttr_us = horizon_us - s.start_us;
  return s;
}

void write_bench_json(const std::string& path,
                      const scenario::ScenarioSpec& spec,
                      const core::ServingReport& on,
                      const core::ServingReport& off,
                      const std::vector<EventScore>& on_scores,
                      const std::vector<EventScore>& off_scores) {
  std::ofstream out(path);
  out << "{\n  \"context\": {\"bench\": \"chaos_mttr\", \"scenario\": \""
      << spec.name << "\", \"duration_us\": " << spec.traffic.duration_us
      << ", \"pdes_threads\": " << spec.pdes.threads
      << ", \"digest_detector\": \""
      << on.digest << "\", \"digest_baseline\": \"" << off.digest
      << "\"},\n  \"benchmarks\": [\n";
  const auto totals = [&out](const char* mode, const core::ServingReport& r) {
    out << "    {\"name\": \"chaos/" << mode
        << "/totals\", \"offered\": " << r.totals.offered
        << ", \"completed\": " << r.totals.completed
        << ", \"shed\": " << r.totals.shed
        << ", \"rejected\": " << r.totals.rejected
        << ", \"failed\": " << r.totals.failed
        << ", \"failovers\": " << r.failovers
        << ", \"restripes\": " << r.restripes << ", \"rejoins\": " << r.rejoins
        << ", \"gray_inflated\": " << r.gray_inflated
        << ", \"chaos_drops\": " << r.switch_chaos_drops
        << ", \"windows_met\": " << r.windows_met
        << ", \"windows\": " << r.windows.size()
        << ", \"p99_us\": " << r.overall.p99() << "},\n";
  };
  totals("detector", on);
  totals("baseline", off);
  const auto events = [&out](const char* mode,
                             const std::vector<EventScore>& scores,
                             bool last_block) {
    for (std::size_t i = 0; i < scores.size(); ++i) {
      const EventScore& s = scores[i];
      out << "    {\"name\": \"chaos/" << mode << "/" << s.label
          << "\", \"start_us\": " << s.start_us
          << ", \"degraded_us\": " << s.degraded_us
          << ", \"ttr_us\": " << s.ttr_us << ", \"blast\": " << s.blast
          << ", \"recovered\": " << (s.recovered ? 1 : 0) << "}"
          << (last_block && i + 1 == scores.size() ? "\n" : ",\n");
    }
  };
  events("detector", on_scores, false);
  events("baseline", off_scores, true);
  out << "  ]\n}\n";
  std::printf("bench JSON -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Chaos MTTR: gray failures and fabric chaos, detector vs timeout-only");
  args.add_string("scenario", "chaos_rack",
                  "scenario name (scenarios/<name>.json) or path");
  if (!args.parse(argc, argv)) return 1;

  scenario::ScenarioSpec spec = bench::load_scenario(args.str("scenario"));
  if (!spec.traffic.enabled()) {
    std::fprintf(stderr,
                 "error: scenario \"%s\" has no traffic block; chaos_mttr "
                 "needs open-loop arrivals\n",
                 spec.name.c_str());
    return 2;
  }
  if (!spec.chaos.enabled()) {
    std::fprintf(stderr,
                 "error: scenario \"%s\" has no chaos timeline; nothing to "
                 "recover from\n",
                 spec.name.c_str());
    return 2;
  }

  // TFSIM_SERVING_US compresses the whole experiment, keeping its shape.
  if (const std::uint64_t us = bench::env_u64("TFSIM_SERVING_US", 0);
      us > 0) {
    bench::compress_chaos(spec, static_cast<double>(us));
  }
  const double window_us = spec.slo.window_us;
  const double horizon_us = spec.traffic.duration_us;

  // The detector path is whatever the scenario declares (chaos_rack ships
  // with detector.enabled = true); the baseline is the same spec with the
  // detector off -- timeout-driven failover only.
  scenario::ScenarioSpec on_spec = spec;
  on_spec.detector.enabled = true;
  scenario::ScenarioSpec off_spec = spec;
  off_spec.detector.enabled = false;

  const core::ServingReport on = run_once(on_spec);
  const core::ServingReport off = run_once(off_spec);

  // Score every non-recover event in both modes against the same resolved
  // timeline (recover events only close windows; they are not scored).
  const std::vector<scenario::ChaosWindow> timeline =
      scenario::resolve_chaos(spec.chaos);
  std::vector<EventScore> on_scores;
  std::vector<EventScore> off_scores;
  for (const scenario::ChaosWindow& ev : timeline) {
    on_scores.push_back(score_event(ev, on, window_us, horizon_us));
    off_scores.push_back(score_event(ev, off, window_us, horizon_us));
  }

  core::Table table(
      "Chaos MTTR: " + spec.name + " (" +
          std::to_string(spec.expanded_node_count()) + " nodes, p99 target " +
          core::Table::num(on.targets.p99_us, 0) + " us, SLO window " +
          core::Table::num(window_us, 0) + " us)",
      {"event", "mode", "start (us)", "degraded (us)", "ttr (us)", "blast",
       "recovered"});
  const auto row = [&table](const char* mode, const EventScore& s) {
    table.row({s.label, mode, core::Table::num(s.start_us, 0),
               core::Table::num(s.degraded_us, 0),
               core::Table::num(s.ttr_us, 0), std::to_string(s.blast),
               s.recovered ? "yes" : "NO"});
  };
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    row("detector", on_scores[i]);
    row("baseline", off_scores[i]);
  }
  table.print();
  table.to_csv(bench::csv_path("chaos_mttr.csv"));

  const auto mode_line = [](const char* mode, const core::ServingReport& r) {
    std::printf("%s: offered %llu, completed %llu, failed %llu, failovers "
                "%llu, restripes %llu, rejoins %llu, gray_inflated %llu, "
                "chaos_drops %llu, overall p99 %.2f us\n",
                mode, static_cast<unsigned long long>(r.totals.offered),
                static_cast<unsigned long long>(r.totals.completed),
                static_cast<unsigned long long>(r.totals.failed),
                static_cast<unsigned long long>(r.failovers),
                static_cast<unsigned long long>(r.restripes),
                static_cast<unsigned long long>(r.rejoins),
                static_cast<unsigned long long>(r.gray_inflated),
                static_cast<unsigned long long>(r.switch_chaos_drops),
                r.overall.p99());
  };
  mode_line("detector", on);
  mode_line("baseline", off);

  // --- acceptance -------------------------------------------------------
  if (!on.balanced || !off.balanced) {
    std::fprintf(stderr, "chaos_mttr: ledger unbalanced -- offered != "
                         "completed + shed + rejected + failed\n");
    return 1;
  }
  if (on.gray_inflated == 0 || off.gray_inflated == 0) {
    std::fprintf(stderr, "chaos_mttr: gray-lender window never inflated a "
                         "request -- chaos timeline did not bite\n");
    return 1;
  }
  if (on.switch_chaos_drops == 0 || off.switch_chaos_drops == 0) {
    std::fprintf(stderr, "chaos_mttr: kill_switch window dropped no frames "
                         "-- chaos timeline did not bite\n");
    return 1;
  }
  if (on.restripes == 0) {
    std::fprintf(stderr, "chaos_mttr: detector mode never re-striped -- the "
                         "reaction path is dead\n");
    return 1;
  }
  bool gray_checked = false;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    if (timeline[i].kind != scenario::ChaosKind::kGrayLender) continue;
    gray_checked = true;
    if (!(on_scores[i].degraded_us < off_scores[i].degraded_us)) {
      std::fprintf(stderr,
                   "chaos_mttr: detector must beat the timeout-only baseline "
                   "on the gray event's p99-degradation window (%s: detector "
                   "%.0f us vs baseline %.0f us)\n",
                   on_scores[i].label.c_str(), on_scores[i].degraded_us,
                   off_scores[i].degraded_us);
      return 1;
    }
    std::printf("gray recovery: %s degraded %.0f us with the detector vs "
                "%.0f us timeout-only (%.0f us shorter)\n",
                on_scores[i].label.c_str(), on_scores[i].degraded_us,
                off_scores[i].degraded_us,
                off_scores[i].degraded_us - on_scores[i].degraded_us);
  }
  if (!gray_checked) {
    std::fprintf(stderr,
                 "chaos_mttr: scenario has no gray_lender event; the "
                 "detector-vs-baseline comparison needs one\n");
    return 1;
  }
  std::puts(
      "Paper shape: the online detector migrates off the gray lender before "
      "the timeout budget burns and re-stripes around the dead spine, so "
      "the windowed p99 degradation stays bounded instead of riding out the "
      "full timeout cascade.");

  write_bench_json(bench::csv_path("BENCH_chaos.json"), spec, on, off,
                   on_scores, off_scores);
  bench::echo_scenario(spec, "chaos_mttr.csv");
  return 0;
}
