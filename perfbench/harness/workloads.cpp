#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/serving.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "workloads/stream/stream.hpp"

namespace perfbench {

using namespace tfsim;

namespace {

/// The paper's measured bandwidth-delay product (Fig. 3), the one reference
/// figure a workload here can be checked against.
constexpr double kPaperBdpKb = 16.5;

scenario::ScenarioSpec load(const Options& opt, const char* name,
                            Spans& spans) {
  const auto s = spans.scope("scenario::load_file");
  return scenario::load_file(opt.scenario_dir + "/" + name + ".json");
}

std::unique_ptr<node::Cluster> assemble(const scenario::ScenarioSpec& spec,
                                        Spans& spans) {
  const auto s = spans.scope("node::Cluster");
  return std::make_unique<node::Cluster>(spec);
}

void attach(node::Cluster& cluster, Spans& spans) {
  const auto s = spans.scope("node::Cluster::attach_remote");
  if (!cluster.attach_remote()) {
    throw std::runtime_error("remote memory failed to attach");
  }
}

/// Host clocks of one repetition: set-up runs from construction to
/// start_run(), the simulated run from there to stop().
class RepClock {
 public:
  void start_run() {
    t1_ = Clock::now();
    cpu1_ = cpu_seconds();
  }
  void stop(Rep& rep) const {
    rep.run_s = seconds_between(t1_, Clock::now());
    rep.run_cpu_s = cpu_seconds() - cpu1_;
    rep.setup_s = seconds_between(t0_, t1_);
  }

 private:
  Clock::time_point t0_ = Clock::now();
  Clock::time_point t1_;
  double cpu1_ = 0.0;
};

// --- per-layer counters, read from public accessors -----------------------

/// mem: summed over every borrower's cache hierarchy.
void read_mem(node::Cluster& c, std::map<std::string, double>& m) {
  std::uint64_t l1_hits = 0, l1_acc = 0, llc_hits = 0, llc_acc = 0, wb = 0;
  for (std::size_t b = 0; b < c.num_borrowers(); ++b) {
    const mem::CacheHierarchy& caches = c.borrower(b).caches();
    const mem::CacheStats& l1 = caches.level(0).stats();
    const mem::CacheStats& llc = caches.level(caches.num_levels() - 1).stats();
    l1_hits += l1.hits;
    l1_acc += l1.accesses();
    llc_hits += llc.hits;
    llc_acc += llc.accesses();
    wb += llc.writebacks;
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b != 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  m["mem.accesses"] = static_cast<double>(l1_acc);
  m["mem.l1_hit_rate"] = ratio(l1_hits, l1_acc);
  m["mem.llc_hit_rate"] = ratio(llc_hits, llc_acc);
  m["mem.writebacks"] = static_cast<double>(wb);
}

/// nic and capi: summed over every borrower NIC.
void read_nic(node::Cluster& c, std::map<std::string, double>& m) {
  double tx = 0, writes = 0, stalls = 0, retries = 0, failures = 0,
         exhaustions = 0, occupancy = 0, gate = 0;
  sim::Histogram latency;
  for (std::size_t b = 0; b < c.num_borrowers(); ++b) {
    if (!c.borrower(b).has_nic()) continue;
    nic::DisaggNic& nic = c.borrower(b).nic();
    tx += static_cast<double>(nic.reads() + nic.writes());
    writes += static_cast<double>(nic.writes());
    stalls += static_cast<double>(nic.window().stalls());
    retries += static_cast<double>(nic.replay().retries());
    failures += static_cast<double>(nic.failures());
    exhaustions += static_cast<double>(nic.credits().exhaustions());
    // Means are kept per borrower; the closed-loop workloads have one.
    occupancy = std::max(occupancy, nic.window().occupancy_stats().mean());
    gate = std::max(gate, nic.injector().added_delay().mean());
    latency.merge(nic.latency_us());
  }
  m["nic.tx"] = tx;
  m["nic.write_share"] = tx > 0 ? writes / tx : 0.0;
  m["nic.window_stalls"] = stalls;
  m["nic.window_occupancy"] = occupancy;
  m["nic.gate_delay_us"] = gate;
  m["nic.latency_p50_us"] = latency.p50();
  m["nic.latency_p99_us"] = latency.p99();
  m["nic.retries"] = retries;
  m["nic.failures"] = failures;
  m["capi.credit_exhaustions"] = exhaustions;
}

/// net: bytes over every link, switch tail-drops and the deepest port queue.
void read_net(node::Cluster& c, std::map<std::string, double>& m) {
  net::Network& net = c.network();
  const auto n = static_cast<net::NodeId>(net.num_nodes());
  std::uint64_t bytes = 0;
  for (net::NodeId from = 0; from < n; ++from) {
    for (net::NodeId to = 0; to < n; ++to) {
      if (net.has_link(from, to)) bytes += net.link(from, to).bytes_sent();
    }
  }
  std::uint64_t drops = 0, peak = 0;
  for (const auto& [id, sw] : net.switches()) {
    drops += sw.total_drops();
    for (const auto& [port, stats] : sw.ports()) {
      peak = std::max(peak, stats.peak_queued_bytes);
    }
  }
  m["net.wire_bytes"] = static_cast<double>(bytes);
  m["net.switch_drops"] = static_cast<double>(drops);
  m["net.peak_queue_bytes"] = static_cast<double>(peak);
}

/// sim: events on the shared calendar plus every PDES domain calendar.
void read_sim(node::Cluster& c, std::map<std::string, double>& m) {
  const sim::ParallelEngine* pdes = c.pdes();
  const double events = static_cast<double>(
      c.engine().executed() + (pdes != nullptr ? pdes->executed() : 0));
  const double windows =
      pdes != nullptr ? static_cast<double>(pdes->windows()) : 0.0;
  m["sim.events"] = events;
  m["sim.windows"] = windows;
  m["sim.events_per_window"] = windows > 0 ? events / windows : 0.0;
}

void read_layers(node::Cluster& c, Rep& rep) {
  read_mem(c, rep.layer);
  read_nic(c, rep.layer);
  read_net(c, rep.layer);
  read_sim(c, rep.layer);
  rep.pdes_threads = c.pdes() != nullptr ? c.pdes()->threads() : 0;
}

/// Closed-loop outcome: NIC transactions attempted and refused.
void closed_loop_outcome(node::Cluster& c, Rep& rep) {
  nic::DisaggNic& nic = c.borrower().nic();
  rep.sim_failed = nic.failures();
  rep.sim_attempted = nic.reads() + nic.writes() + nic.failures();
  rep.ops = rep.layer.at("mem.accesses");
}

/// Deterministic text of the borrower NIC's outcome: counts and latency
/// histogram summary.
std::string nic_text(node::Cluster& c) {
  nic::DisaggNic& nic = c.borrower().nic();
  const sim::Histogram& h = nic.latency_us();
  std::ostringstream out;
  out << "nic reads=" << nic.reads() << " writes=" << nic.writes()
      << " failures=" << nic.failures() << " latency n=" << h.count()
      << " min=" << num(h.min()) << " mean=" << num(h.mean())
      << " p50=" << num(h.p50()) << " p99=" << num(h.p99())
      << " p999=" << num(h.p999()) << " max=" << num(h.max()) << "\n";
  return out.str();
}

}  // namespace

Rep run_stream_remote(const Options& opt, Spans& spans) {
  Rep rep;
  RepClock clock;
  std::unique_ptr<node::Cluster> cluster;
  std::unique_ptr<workloads::Stream> stream;
  {
    const auto setup = spans.scope("setup");
    scenario::ScenarioSpec spec = load(opt, "paper_twonode", spans);
    spec.injector.period = 1;
    cluster = assemble(spec, spans);
    attach(*cluster, spans);
    workloads::StreamConfig cfg;
    cfg.elements = stream_elements(opt);
    cfg.placement = node::Placement::kRemote;
    const auto s = spans.scope("workloads::Stream");
    stream = std::make_unique<workloads::Stream>(cluster->borrower(), cfg);
  }
  clock.start_run();
  workloads::StreamResult res;
  {
    const auto run = spans.scope("run");
    const auto s = spans.scope("workloads::Stream::run");
    res = stream->run();
  }
  clock.stop(rep);

  read_layers(*cluster, rep);
  closed_loop_outcome(*cluster, rep);
  if (!res.validated) rep.check_error = "STREAM validation failed";

  const workloads::StreamKernelResult& copy = res.kernel("copy");
  const double bdp = core::bdp_kb(copy.bandwidth_gbps, copy.avg_latency_us);
  rep.layer["model.err_pct"] =
      std::abs(bdp - kPaperBdpKb) / kPaperBdpKb * 100.0;

  std::ostringstream digest;
  for (const auto& k : res.kernels) {
    digest << "kernel " << k.kernel << " elapsed_ps=" << k.elapsed << "\n";
  }
  digest << nic_text(*cluster);
  rep.sim_digest = core::fnv1a(digest.str());
  return rep;
}

Rep run_serving_rack(const Options& opt, Spans& spans) {
  Rep rep;
  RepClock clock;
  std::unique_ptr<node::Cluster> cluster;
  {
    const auto setup = spans.scope("setup");
    scenario::ScenarioSpec spec = load(opt, "serving_diurnal", spans);
    // Stretch the checked-in horizon to serving_horizon_us, keeping one
    // diurnal cycle over it and the lender kill at its half-way peak.
    const double horizon_us = serving_horizon_us(opt);
    spec.traffic.duration_us = horizon_us;
    spec.traffic.diurnal_period_us = horizon_us;
    if (!spec.faults.kill_lender.empty()) {
      spec.faults.kill_at_us = horizon_us / 2.0;
    }
    spec.slo.window_us = std::min(spec.slo.window_us, horizon_us / 4.0);
    spec.traffic.seed = opt.seed;
    spec.pdes.threads = 1;  // serial: the per-node calendars run inline
    cluster = assemble(spec, spans);
  }
  clock.start_run();
  core::ServingReport report;
  {
    const auto run = spans.scope("run");
    const auto s = spans.scope("core::run_serving");
    report = core::run_serving(*cluster);
  }
  clock.stop(rep);

  read_layers(*cluster, rep);
  const workloads::OpenLoopCounters& t = report.totals;
  rep.ops = static_cast<double>(t.offered);
  rep.sim_attempted = t.offered;
  rep.sim_failed = t.failed + t.rejected + t.shed;
  rep.layer["ctrl.failovers"] = static_cast<double>(report.failovers);
  rep.layer["ctrl.rejected"] = static_cast<double>(t.rejected);
  rep.layer["core.windows_met"] = static_cast<double>(report.windows_met);
  if (!report.balanced) {
    rep.check_error = "serving ledger unbalanced";
  } else if (!cluster->spec().faults.kill_lender.empty() &&
             report.failovers == 0) {
    rep.check_error = "a lender was killed but no source failed over";
  } else if (t.offered == 0) {
    rep.check_error = "no requests offered";
  }
  rep.sim_digest = report.digest;
  return rep;
}

}  // namespace perfbench
