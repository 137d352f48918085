// Shared helpers for the bench binaries.
//
// Experiment sizing comes from environment variables (defaults reproduce
// the paper's shapes at laptop-friendly sizes; set TFSIM_FULL=1 for the
// paper's exact workload sizes):
//   TFSIM_STREAM_ELEMENTS   STREAM array elements        (default 10000000)
//   TFSIM_GRAPH_SCALE       Graph500 scale               (default 19; paper 20)
//   TFSIM_KV_KEYS           KV-store key space           (default 200000)
//   TFSIM_KV_REQUESTS       Memtier requests per client  (default 200; paper 10000)
//   TFSIM_CSV_DIR           where to mirror result CSVs  (default ".")
//   TFSIM_JOBS              sweep worker threads         (default 1 = serial;
//                           0 = one per hardware thread)
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/serving.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "sim/sweep.hpp"
#include "workloads/graph500/graph500.hpp"
#include "workloads/kvstore/memtier.hpp"
#include "workloads/stream/stream.hpp"

namespace tfsim::bench {

/// Strict environment-variable parsing: a set-but-malformed value is a
/// configuration bug, so fail loudly instead of silently running the
/// experiment at 0 (what strtoull's "parse as far as you can" gave us).
/// An unset or empty variable falls back to the default.
inline std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || *v == '-') {
    std::fprintf(stderr,
                 "error: %s=\"%s\" is not a valid unsigned integer\n", name, v);
    std::exit(2);
  }
  return parsed;
}

inline bool full_size() { return env_u64("TFSIM_FULL", 0) != 0; }

inline workloads::StreamConfig stream_config() {
  workloads::StreamConfig cfg;
  cfg.elements = env_u64("TFSIM_STREAM_ELEMENTS", 10'000'000);
  return cfg;
}

inline workloads::g500::Graph500Config graph_config() {
  workloads::g500::Graph500Config cfg;
  cfg.gen.scale = static_cast<std::uint32_t>(
      env_u64("TFSIM_GRAPH_SCALE", full_size() ? 20 : 19));
  return cfg;
}

inline workloads::kv::KvStoreConfig kv_store_config() {
  workloads::kv::KvStoreConfig cfg;
  return cfg;
}

inline workloads::kv::MemtierConfig memtier_config() {
  workloads::kv::MemtierConfig cfg;
  cfg.key_space = env_u64("TFSIM_KV_KEYS", 200'000);
  cfg.requests_per_client =
      env_u64("TFSIM_KV_REQUESTS", full_size() ? 10'000 : 200);
  return cfg;
}

inline std::string csv_path(const std::string& file) {
  std::string dir = ".";
  if (const char* v = std::getenv("TFSIM_CSV_DIR")) dir = v;
  return dir + "/" + file;
}

// --- scenario plumbing -----------------------------------------------------
//
// Benches take --scenario=<name-or-path>.  A path (contains '/' or ends in
// .json) loads that file; a bare name is the built-in of that name
// (scenario::builtin: the source tree's scenarios/<name>.json).

/// Resolve and load a scenario; exits 2 with a clear error when the name is
/// unknown or the file fails to parse (a broken scenario must never run
/// the experiment with silently-default settings).
inline scenario::ScenarioSpec load_scenario(const std::string& name_or_path) {
  try {
    if (name_or_path.find('/') != std::string::npos ||
        (name_or_path.size() > 5 &&
         name_or_path.rfind(".json") == name_or_path.size() - 5)) {
      return scenario::load_file(name_or_path);
    }
    if (auto spec = scenario::builtin(name_or_path)) return *spec;
    std::fprintf(stderr, "error: unknown scenario \"%s\"\n",
                 name_or_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  std::exit(2);
}

/// TFSIM_SERVING_US compression for serving_slo: the whole experiment
/// shrinks to `horizon_us` but keeps its shape -- one diurnal cycle over the
/// horizon, any lender kill at the half-way peak, and at least four SLO
/// windows across the run.
inline void compress_serving(scenario::ScenarioSpec& spec, double horizon_us) {
  spec.traffic.duration_us = horizon_us;
  spec.traffic.diurnal_period_us = horizon_us;
  if (!spec.faults.kill_lender.empty()) {
    spec.faults.kill_at_us = horizon_us / 2.0;
  }
  if (spec.slo.window_us > horizon_us / 4.0) {
    spec.slo.window_us = horizon_us / 4.0;
  }
}

/// TFSIM_SERVING_US compression for chaos_mttr: the traffic horizon, the
/// diurnal period, any lender kill, the SLO window and every chaos event
/// scale by one factor, so event N still lands at the same fraction of the
/// run.
inline void compress_chaos(scenario::ScenarioSpec& spec, double horizon_us) {
  const double scale = horizon_us / spec.traffic.duration_us;
  spec.traffic.duration_us = horizon_us;
  spec.traffic.diurnal_period_us *= scale;
  if (!spec.faults.kill_lender.empty()) spec.faults.kill_at_us *= scale;
  spec.slo.window_us *= scale;
  for (scenario::ChaosEventSpec& ev : spec.chaos.events) {
    ev.at_us *= scale;
    ev.for_us *= scale;
  }
}

/// Pick a sweep axis with the standard precedence: command-line override >
/// the scenario's pinned axis > the bench's built-in default.
template <typename T>
inline std::vector<T> axis_values(const std::vector<std::int64_t>& cli,
                                  const std::vector<T>& spec_axis,
                                  std::vector<T> fallback) {
  if (!cli.empty()) {
    std::vector<T> out;
    for (const auto v : cli) out.push_back(static_cast<T>(v));
    return out;
  }
  if (!spec_axis.empty()) return spec_axis;
  return fallback;
}

/// `spec` with its injector at `period`, for one point of a PERIOD axis.
/// A delay distribution replaces the PERIOD gate, so every PERIOD would run
/// the same injector under a different label: exit 2 instead.  Call it
/// before the fan-out, on the calling thread.
inline scenario::ScenarioSpec at_period(scenario::ScenarioSpec spec,
                                        std::uint64_t period) {
  if (spec.injector.dist_kind.has_value()) {
    std::fprintf(stderr, "error: %s\n", scenario::kPeriodsNeedGate);
    std::exit(2);
  }
  spec.injector.period = period;
  return spec;
}

/// Echo the fully-resolved spec (defaults filled in, overrides applied)
/// next to a result CSV, so every CSV states exactly what produced it.
inline void echo_scenario(const scenario::ScenarioSpec& spec,
                          const std::string& csv_file) {
  std::string stem = csv_file;
  if (stem.size() > 4 && stem.rfind(".csv") == stem.size() - 4) {
    stem.resize(stem.size() - 4);
  }
  const std::string path = csv_path(stem + ".scenario.json");
  std::ofstream out(path);
  out << scenario::resolved_json(spec);
  std::printf("resolved scenario -> %s\n", path.c_str());
}

// --- BENCH_*.json -----------------------------------------------------------
//
// Every bench report is one scenario::Json document, {"context": {...},
// "benchmarks": [{"name": ..., <metrics>}, ...]}, so scenario and tenant
// names are escaped like any other JSON string.

/// One numeric field of a BENCH_*.json object, from any arithmetic value.
struct Metric {
  template <typename T>
  Metric(const char* k, T v) : key(k), value(static_cast<double>(v)) {}
  const char* key;
  double value;
};

/// Append `metrics`, in order, to the object `obj`.
inline void add_metrics(scenario::Json& obj,
                        std::initializer_list<Metric> metrics) {
  for (const Metric& m : metrics) {
    obj.set(m.key, scenario::Json::number(m.value));
  }
}

/// One "benchmarks" row.
inline scenario::Json bench_row(const std::string& name,
                                std::initializer_list<Metric> metrics) {
  scenario::Json row = scenario::Json::object();
  row.set("name", scenario::Json::string(name));
  add_metrics(row, metrics);
  return row;
}

/// The "context" object: the bench, its scenario and run-wide values.
inline scenario::Json bench_context(const char* bench,
                                    const std::string& scenario_name,
                                    std::initializer_list<Metric> metrics) {
  scenario::Json context = scenario::Json::object();
  context.set("bench", scenario::Json::string(bench));
  context.set("scenario", scenario::Json::string(scenario_name));
  add_metrics(context, metrics);
  return context;
}

/// A 64-bit digest as a decimal string (a JSON number would round it).
inline scenario::Json json_digest(std::uint64_t d) {
  return scenario::Json::string(std::to_string(d));
}

/// The totals row of one serving run, shared by serving_slo and chaos_mttr.
inline scenario::Json serving_totals(const std::string& name,
                                     const core::ServingReport& r) {
  return bench_row(
      name, {{"offered", r.totals.offered}, {"completed", r.totals.completed},
             {"shed", r.totals.shed}, {"rejected", r.totals.rejected},
             {"failed", r.totals.failed}, {"failovers", r.failovers},
             {"restripes", r.restripes}, {"rejoins", r.rejoins},
             {"gray_inflated", r.gray_inflated},
             {"chaos_drops", r.switch_chaos_drops},
             {"windows_met", r.windows_met}, {"windows", r.windows.size()},
             {"p50_us", r.overall.p50()}, {"p99_us", r.overall.p99()},
             {"p999_us", r.overall.p999()}});
}

/// Write {"context": context, "benchmarks": rows} to csv_path(file); exits
/// 1 when the file cannot be written.
inline void write_bench_json(const std::string& file, scenario::Json context,
                             scenario::Json rows) {
  scenario::Json doc = scenario::Json::object();
  doc.set("context", std::move(context));
  doc.set("benchmarks", std::move(rows));
  const std::string path = csv_path(file);
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("bench JSON -> %s\n", path.c_str());
}

/// Run one independent simulation per element of `inputs` across
/// $TFSIM_JOBS worker threads (serial when unset), returning results in
/// input order — byte-identical to a serial loop, so tables and CSVs do
/// not depend on the worker count.  Prints the sweep wall-clock so the
/// speedup is visible next to the tables.
template <typename T, typename Fn>
auto run_sweep(const char* name, const std::vector<T>& inputs, Fn&& fn) {
  const sim::SweepRunner runner;
  const auto t0 = std::chrono::steady_clock::now();
  auto results = runner.map(inputs, std::forward<Fn>(fn));
  const auto wall =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0);
  std::printf("[%s] %zu points, %u job(s), wall %lld ms\n", name,
              inputs.size(), runner.jobs(),
              static_cast<long long>(wall.count()));
  return results;
}

}  // namespace tfsim::bench
