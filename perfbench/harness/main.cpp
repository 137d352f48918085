// tfsim benchmark harness.
//
//   perfbench --workload stream_remote|serving_rack --seed N
//             --seconds S --trace 0|1 --scenarios DIR
//             [--size full|tiny] [--spans FILE] [--commit HASH]
//
// Repeats the workload -- set-up and run afresh each time -- until
// --seconds of host time have passed (at least three repetitions untraced,
// two traced), checks each repetition's functional result and that every
// repetition produced the same sim_digest, then prints a record line and,
// as the last line, the result object:
//   {"correct": ..., "attempted": <reps>, "failed": <failed reps>,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
// --trace 0 reports the end-to-end metrics (median set-up, fastest run);
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer metrics.  Exit status: 0 ok, 1 a check failed, 2 usage or
// set-up error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "sim/domain.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_ops_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"success_rate", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"scenario.load_s", "s"},
    {"node.assemble_s", "s"},
    {"ctrl.attach_s", "s"},
    {"workloads.gen_s", "s"},
    {"core.run_s", "s"},
    {"trace.overhead_pct", "%"},
    {"mem.accesses", "count"},
    {"mem.l1_hit_rate", "ratio"},
    {"mem.llc_hit_rate", "ratio"},
    {"mem.writebacks", "count"},
    {"mem.host_ns_per_access", "ns"},
    {"nic.tx", "count"},
    {"nic.write_share", "ratio"},
    {"nic.window_stalls", "count"},
    {"nic.window_occupancy", "count"},
    {"nic.gate_delay_us", "us"},
    {"nic.latency_p50_us", "us"},
    {"nic.latency_p99_us", "us"},
    {"nic.retries", "count"},
    {"nic.failures", "count"},
    {"capi.credit_exhaustions", "count"},
    {"nic.host_ns_per_tx", "ns"},
    {"net.wire_bytes", "B"},
    {"net.host_ns_per_frame", "ns"},
    {"net.switch_drops", "count"},
    {"net.peak_queue_bytes", "B"},
    {"sim.events", "count"},
    {"sim.windows", "count"},
    {"sim.events_per_window", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"ctrl.failovers", "count"},
    {"ctrl.rejected", "count"},
    {"core.windows_met", "count"},
    {"core.error_rate", "ratio"},
    {"model.err_pct", "%"},
};

using RepFn = Rep (*)(const Options&, Spans&);

RepFn lookup(const std::string& workload) {
  if (workload == "stream_remote") return &run_stream_remote;
  if (workload == "serving_rack") return &run_serving_rack;
  return nullptr;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty() || val[0] == '-') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
    } else if (key == "--size") {
      if (val != "full" && val != "tiny") return false;
      opt.tiny = val == "tiny";
    } else if (key == "--scenarios") {
      opt.scenario_dir = val;
    } else if (key == "--spans") {
      opt.spans_path = val;
    } else if (key == "--commit") {
      opt.commit = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.scenario_dir.empty() &&
         lookup(opt.workload) != nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string num_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i != 0 ? ", " : "") + num(v[i]);
  }
  return out + "]";
}

const char* mode_name(tfsim::sim::DomainCheckMode mode) {
  switch (mode) {
    case tfsim::sim::DomainCheckMode::kOff: return "off";
    case tfsim::sim::DomainCheckMode::kCollect: return "collect";
    case tfsim::sim::DomainCheckMode::kStrict: return "strict";
  }
  return "unknown";
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int run(const Options& opt) {
  const RepFn fn = lookup(opt.workload);
  Spans spans;
  std::vector<Rep> reps;
  const std::size_t min_reps = opt.trace ? 2 : 3;
  constexpr std::size_t kMaxReps = 200;
  const auto run_id = [&](std::size_t rep) {
    return opt.workload + "/seed" + std::to_string(opt.seed) + "/rep" +
           std::to_string(rep);
  };
  const Clock::time_point start = Clock::now();
  double last_rep_s = 0.0;
  // Stop before a repetition that would end past --seconds.
  while (reps.size() < min_reps ||
         (seconds_between(start, Clock::now()) + last_rep_s < opt.seconds &&
          reps.size() < kMaxReps)) {
    const Clock::time_point rep_start = Clock::now();
    // Traced runs alternate untraced and traced repetitions, so the tracing
    // overhead is measured inside one process.
    const bool trace_this = opt.trace && reps.size() % 2 == 1;
    spans.set_enabled(trace_this);
    spans.begin_run(run_id(reps.size()));
    reps.push_back(fn(opt, spans));
    reps.back().traced = trace_this;
    last_rep_s = seconds_between(rep_start, Clock::now());
    std::fprintf(stderr, "perfbench: %s rep %zu%s: setup %.3f s, run %.3f s\n",
                 opt.workload.c_str(), reps.size() - 1,
                 trace_this ? " (traced)" : "", reps.back().setup_s,
                 reps.back().run_s);
  }
  spans.set_enabled(false);

  // Functional checks and the determinism gate.
  std::size_t failed = 0;
  for (const Rep& r : reps) {
    if (!r.check_error.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n",
                   r.check_error.c_str());
    }
  }
  bool digests_agree = true;
  for (const Rep& r : reps) {
    if (r.sim_digest != reps.front().sim_digest) digests_agree = false;
  }
  if (!digests_agree) {
    std::fprintf(stderr, "perfbench: repetitions disagree on sim_digest: the "
                         "simulation is nondeterministic\n");
  }
  const bool correct = failed == 0 && digests_agree;
  const Rep& first = reps.front();

  std::map<std::string, double> metrics;
  std::vector<double> setup_s, run_s, run_cpu_s, ops_per_s;
  for (const Rep& r : reps) {
    setup_s.push_back(r.setup_s);
    run_s.push_back(r.run_s);
    run_cpu_s.push_back(r.run_cpu_s);
    ops_per_s.push_back(r.run_s > 0 ? r.ops / r.run_s : 0.0);
  }
  const double error_rate =
      first.sim_attempted != 0 ? static_cast<double>(first.sim_failed) /
                                     static_cast<double>(first.sim_attempted)
                               : 0.0;
  if (!opt.trace) {
    metrics["setup_s"] = median(setup_s);
    // The fastest repetition: every repetition does the same simulated work,
    // and interference from other tenants of the host only slows it, in
    // regimes that can outlast a run (README.md, "Host noise").
    metrics["sim_ops_per_s"] =
        *std::max_element(ops_per_s.begin(), ops_per_s.end());
    metrics["peak_rss_mib"] = peak_rss_mib();
    metrics["success_rate"] = 1.0 - error_rate;
  } else {
    const Rep& last_traced = *std::find_if(
        reps.rbegin(), reps.rend(), [](const Rep& r) { return r.traced; });
    metrics = last_traced.layer;
    metrics.emplace("model.err_pct", -1.0);  // no paper reference here
    metrics["core.error_rate"] = error_rate;
    std::map<std::string, std::vector<double>> phases;
    std::vector<double> traced_run, untraced_run;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      (reps[i].traced ? traced_run : untraced_run).push_back(reps[i].run_s);
      if (!reps[i].traced) continue;
      const std::string id = run_id(i);
      phases["scenario.load_s"].push_back(spans.total(id, "scenario::load_file"));
      phases["node.assemble_s"].push_back(spans.total(id, "node::Cluster"));
      phases["ctrl.attach_s"].push_back(
          spans.total(id, "node::Cluster::attach_remote"));
      phases["workloads.gen_s"].push_back(spans.total(id, "workloads::Stream"));
      phases["core.run_s"].push_back(spans.total(id, "run"));
    }
    for (const auto& [name, values] : phases) metrics[name] = median(values);
    metrics["trace.overhead_pct"] =
        (median(traced_run) / median(untraced_run) - 1.0) * 100.0;
    for (const auto& [name, value] : replay_layers(opt, last_traced)) {
      metrics[name] = value;
    }
    if (!opt.spans_path.empty() && !spans.write_jsonl(opt.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   opt.spans_path.c_str());
      return 2;
    }
  }

  if (!kOptimized) {
    std::fprintf(stderr, "perfbench: WARNING: this build is not optimized; "
                         "host times are not comparable\n");
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first.sim_digest));
  const std::string env =
      std::string("{\"nproc\": ") +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
      ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
      ", \"cxx_flags\": " + quoted(PERFBENCH_CXX_FLAGS) +
      ", \"optimized\": " + (kOptimized ? "true" : "false") +
      ", \"domain_check\": " +
      quoted(mode_name(tfsim::sim::DomainChecker::mode_from_env())) +
      ", \"pdes_threads\": " + std::to_string(first.pdes_threads) +
      ", \"sweep_jobs\": 1, \"commit\": " + quoted(opt.commit) + "}";
  std::printf(
      "{\"perfbench\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"size\": %s, \"reps\": %zu, \"sim_digest\": \"%s\", "
      "\"digests_agree\": %s, \"model\": %s, \"env\": %s, \"setup_s\": %s, "
      "\"run_s\": %s, \"run_cpu_s\": %s, \"sim_ops_per_s\": %s, "
      "\"spans\": %s}}\n",
      quoted(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, opt.tiny ? "\"tiny\"" : "\"full\"", reps.size(),
      digest, digests_agree ? "true" : "false",
      opt.workload == "stream_remote"
          ? "\"checked against the paper's 16.5 kB BDP (model.err_pct)\""
          : "\"unvalidated: no paper reference at this configuration\"",
      env.c_str(), num_list(setup_s).c_str(), num_list(run_s).c_str(),
      num_list(run_cpu_s).c_str(), num_list(ops_per_s).c_str(),
      quoted(opt.trace ? opt.spans_path : "").c_str());

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(reps.size()) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first_metric = true;
  const auto emit = [&](const MetricDef& def) {
    const auto it = metrics.find(def.name);
    const double v = it != metrics.end() ? it->second : 0.0;
    out += (first_metric ? "" : ", ") + quoted(def.name) +
           ": {\"value\": " + num(v) + ", \"unit\": " + quoted(def.unit) + "}";
    first_metric = false;
  };
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Pin what the library would otherwise read from the environment: serial
  // sweeps, the workload's own PDES worker count, and the library's default
  // domain-check mode (recorded in every result).
  for (const char* var : {"TFSIM_PDES", "TFSIM_JOBS", "TFSIM_DOMAIN_CHECK"}) {
    unsetenv(var);
  }
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload stream_remote|serving_rack"
                 " --seed N --seconds S --trace 0|1 --scenarios DIR"
                 " [--size full|tiny] [--spans FILE] [--commit HASH]\n");
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
