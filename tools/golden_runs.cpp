#include "golden_runs.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "axi/endpoints.hpp"
#include "axi/fifo.hpp"
#include "axi/monitor.hpp"
#include "axi/mux.hpp"
#include "axi/rate_gate.hpp"
#include "axi/router.hpp"
#include "axi/testbench.hpp"
#include "bench_common.hpp"
#include "congestion_probe.hpp"
#include "core/resilience.hpp"
#include "fabric_point.hpp"
#include "net/network.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "node/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/pdes.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/sweep.hpp"
#include "workloads/graph500/graph500.hpp"
#include "workloads/kvstore/kvstore.hpp"
#include "workloads/kvstore/memtier.hpp"
#include "workloads/stream/stream.hpp"

namespace tfsim::golden {

namespace {

/// Per-domain RNG stream split off the run seed.
sim::Rng domain_rng(std::uint64_t seed, std::size_t d) {
  return sim::Rng(seed ^ (0x9E3779B97F4A7C15ULL * (d + 1)));
}

/// "<prefix><i>"; appending sidesteps gcc 12's -Wrestrict false positive on
/// `const char* + std::string` at -O3.
std::string node_name(char prefix, std::size_t i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

void fold(std::uint64_t& acc, sim::Time now, std::uint64_t id) {
  acc = acc * 1099511628211ULL ^ now ^ id;
}

Run finish(const sim::ParallelEngine& pdes, std::ostringstream& os) {
  Run r;
  r.serialized = os.str();
  r.events = pdes.executed();
  r.windows = pdes.windows();
  return r;
}

/// A double's exact bits, as a C99 hex-float.
std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void put(std::ostream& os, const sim::OnlineStats& s) {
  os << s.count() << "/" << exact(s.mean()) << "/" << exact(s.variance())
     << "/" << exact(s.min()) << "/" << exact(s.max());
}

void put(std::ostream& os, const node::ContextStats& s) {
  os << "acc=" << s.accesses << " hits=";
  for (const std::uint64_t h : s.level_hits) os << h << ",";
  os << " local=" << s.local_misses << " remote=" << s.remote_misses
     << " wb=" << s.posted_writebacks << " fail=" << s.failures
     << " stall=" << s.stall_time << " compute=" << s.compute_time
     << " lat=";
  put(os, s.miss_latency_us);
  os << ";";
}

/// paper_twonode at `period`, remote memory attached.
std::unique_ptr<node::Cluster> twonode(std::uint64_t period,
                                       std::uint32_t latency_reserved = 0) {
  auto spec = *scenario::builtin("paper_twonode");
  spec.injector.period = period;
  spec.nodes[0].nic.latency_reserved_entries = latency_reserved;
  auto cluster = std::make_unique<node::Cluster>(spec);
  if (!cluster->attach_remote()) {
    throw std::runtime_error("paper_twonode: remote memory failed to attach");
  }
  return cluster;
}

/// The borrower NIC's counts, window, injector and latency histogram, the
/// lender DRAM's load, and the shared calendar's clock.
Run finish_closed(node::Cluster& cluster, std::ostringstream& os) {
  nic::DisaggNic& nic = cluster.borrower().nic();
  const sim::Histogram& h = nic.latency_us();
  os << "nic r=" << nic.reads() << " w=" << nic.writes()
     << " fail=" << nic.failures() << " out=" << nic.wire_bytes_out()
     << " in=" << nic.wire_bytes_in() << " stalls=" << nic.window().stalls()
     << " inflight=" << nic.window().in_flight() << " occ=";
  put(os, nic.window().occupancy_stats());
  os << " gate=";
  put(os, nic.injector().added_delay());
  os << " lat=" << h.count() << "/" << exact(h.min()) << "/"
     << exact(h.mean()) << "/" << exact(h.p50()) << "/" << exact(h.p99())
     << "/" << exact(h.p999()) << "/" << exact(h.max()) << ";";
  const mem::Dram& lender = cluster.lender().dram();
  os << "lender " << lender.requests() << "/" << lender.bytes_served() << "/"
     << lender.busy_time() << ";now=" << cluster.engine().now();
  Run r;
  r.serialized = os.str();
  r.events = cluster.engine().executed();
  return r;
}

}  // namespace

Run calendar_ring(std::size_t domains, sim::Time lookahead,
                  std::uint64_t seed, int chain_len) {
  sim::ParallelEngine pdes(domains, sim::PdesConfig{1, lookahead});
  std::vector<std::uint64_t> hops(domains, 0);
  std::vector<std::uint64_t> acc(domains, 0);

  // Each hop folds (domain, now) into the owning domain's digest and
  // forwards to the next ring member one lookahead out -- always legal,
  // since the next window's horizon is at most now + lookahead.
  std::function<void(sim::DomainId, int)> hop = [&](sim::DomainId d,
                                                    int depth) {
    sim::Engine& self = pdes.domain(d);
    ++hops[d];
    fold(acc[d], self.now(), d);
    if (depth <= 0) return;
    const auto dst = static_cast<sim::DomainId>((d + 1) % domains);
    pdes.post(d, dst, self.now() + lookahead,
              [&hop, dst, depth] { hop(dst, depth - 1); });
  };

  sim::Rng rng(seed);
  for (std::size_t d = 0; d < domains; ++d) {
    const auto id = static_cast<sim::DomainId>(d);
    pdes.post(id, id, rng.uniform_u64(lookahead),
              [&hop, id, chain_len] { hop(id, chain_len); });
  }
  pdes.run();

  std::ostringstream os;
  for (std::size_t d = 0; d < domains; ++d) {
    os << d << ":" << hops[d] << ":" << acc[d] << ":"
       << pdes.domain(static_cast<sim::DomainId>(d)).executed() << ";";
  }
  return finish(pdes, os);
}

Run ring_fabric(std::uint64_t seed) {
  constexpr std::size_t kNodes = 12;
  net::Network fabric;
  for (std::size_t i = 0; i < kNodes; ++i) {
    fabric.add_node(node_name('n', i));
  }
  sim::Rng wiring(seed ^ 0xFAB51Cull);
  for (std::size_t i = 0; i < kNodes; ++i) {
    net::LinkConfig cfg;
    cfg.propagation = sim::from_ns(80.0 + wiring.uniform(0.0, 300.0));
    cfg.bandwidth = sim::Bandwidth::from_gbit(50.0);
    fabric.connect(static_cast<net::NodeId>(i),
                   static_cast<net::NodeId>((i + 1) % kNodes), cfg);
  }
  const sim::Time lookahead = fabric.min_propagation();
  sim::ParallelEngine pdes(kNodes, sim::PdesConfig{1, lookahead});

  std::vector<sim::Rng> rng;
  std::vector<std::uint64_t> acc(kNodes, 0);
  rng.reserve(kNodes);
  for (std::size_t d = 0; d < kNodes; ++d) rng.push_back(domain_rng(seed, d));

  std::function<void(net::NodeId, int)> bounce = [&](net::NodeId d,
                                                     int budget) {
    sim::Engine& self = pdes.domain(d);
    fold(acc[d], self.now(), d);
    if (budget <= 0) return;
    const auto dst = static_cast<net::NodeId>((d + 1) % kNodes);
    const std::uint64_t bytes = 64 + rng[d].uniform_u64(1400);
    fabric.post_routed(pdes, self.now(), d, dst, bytes, sim::Priority::kBulk,
                       /*flow_salt=*/0,
                       [&bounce, dst, budget](const net::Delivery&) {
                         bounce(dst, budget - 1);
                       });
  };
  for (std::size_t d = 0; d < kNodes; ++d) {
    const auto id = static_cast<net::NodeId>(d);
    pdes.post(id, id, 1 + rng[d].uniform_u64(lookahead),
              [&bounce, id] { bounce(id, 50); });
  }
  pdes.run();

  std::ostringstream os;
  for (std::size_t d = 0; d < kNodes; ++d) {
    os << d << ":" << acc[d] << ":"
       << pdes.domain(static_cast<sim::DomainId>(d)).executed() << ":"
       << pdes.domain(static_cast<sim::DomainId>(d)).now() << ";";
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto& link = fabric.link(static_cast<net::NodeId>(i),
                                   static_cast<net::NodeId>((i + 1) % kNodes));
    os << "L" << i << "=" << link.bytes_sent() << "," << link.packets_sent()
       << ";";
  }
  return finish(pdes, os);
}

Run leafspine_fabric(std::uint64_t seed) {
  constexpr std::size_t kHosts = 8;
  net::Network fabric;
  std::vector<net::NodeId> hosts;
  hosts.reserve(kHosts);
  for (std::size_t i = 0; i < kHosts; ++i) {
    hosts.push_back(fabric.add_node(node_name('h', i)));
  }
  net::LeafSpineConfig topo;
  topo.leaves = 2;
  topo.spines = 2;
  topo.edge.bandwidth = sim::Bandwidth::from_gbit(50.0);
  topo.edge.propagation = sim::from_ns(120.0);
  topo.uplink.bandwidth = sim::Bandwidth::from_gbit(50.0);
  topo.uplink.propagation = sim::from_ns(200.0);
  topo.sw.policy = net::QueuePolicy::kDrop;
  topo.sw.buffer_bytes = 4096;  // shallow on purpose: tail drops must occur
  const auto rack = net::LeafSpineFabric::build(fabric, topo, hosts);

  const sim::Time lookahead = fabric.min_propagation();
  sim::ParallelEngine pdes(kHosts + rack.leaves.size() + rack.spines.size(),
                           sim::PdesConfig{1, lookahead});

  std::vector<sim::Rng> rng;
  std::vector<std::uint64_t> acc(kHosts, 0);
  std::vector<std::uint64_t> arrivals(kHosts, 0);
  rng.reserve(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) rng.push_back(domain_rng(seed, h));

  // Bounce chains host i -> (i + 1) % kHosts: hosts alternate leaves, so
  // every frame crosses the spine tier and contends for the shallow uplink
  // buffers.  A tail-dropped frame ends its chain silently -- which chains
  // survive is part of the serialization.
  std::function<void(net::NodeId, int, std::uint64_t)> bounce =
      [&](net::NodeId h, int budget, std::uint64_t flow) {
        sim::Engine& self = pdes.domain(static_cast<sim::DomainId>(h));
        fold(acc[h], self.now(), h);
        ++arrivals[h];
        if (budget <= 0) return;
        const auto dst = static_cast<net::NodeId>((h + 1) % kHosts);
        const std::uint64_t bytes = 256 + rng[h].uniform_u64(1200);
        fabric.post_routed(pdes, self.now(), h, dst, bytes,
                           sim::Priority::kBulk, flow,
                           [&bounce, dst, budget, flow](const net::Delivery&) {
                             bounce(dst, budget - 1, flow + 1);
                           });
      };
  for (std::size_t h = 0; h < kHosts; ++h) {
    for (int chain = 0; chain < 4; ++chain) {
      const sim::Time start = 1 + rng[h].uniform_u64(lookahead);
      const auto id = static_cast<net::NodeId>(h);
      const auto flow = static_cast<std::uint64_t>(h * 131 + chain);
      pdes.post(id, id, start, [&bounce, id, flow] { bounce(id, 40, flow); });
    }
  }
  pdes.run();

  std::ostringstream os;
  std::uint64_t drops = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    os << h << ":" << acc[h] << ":" << arrivals[h] << ":"
       << pdes.domain(static_cast<sim::DomainId>(h)).executed() << ":"
       << pdes.domain(static_cast<sim::DomainId>(h)).now() << ";";
  }
  for (const auto& [id, sw] : fabric.switches()) {
    os << "S" << id << "=" << sw.total_drops();
    for (const auto& [egress, port] : sw.ports()) {
      os << ",p" << egress << ":" << port.frames << ":" << port.bytes << ":"
         << port.drops << ":" << port.peak_queued_bytes;
    }
    os << ";";
    drops += sw.total_drops();
  }
  Run r = finish(pdes, os);
  r.switch_drops = drops;
  return r;
}

Run random_fabric(std::uint64_t seed, int hops_per_node) {
  sim::Rng rng(seed);
  net::Network network;
  const std::size_t nodes = 2 + rng.uniform_u64(11);  // 2..12 nodes
  std::vector<std::vector<net::NodeId>> neighbors(nodes);  // sorted order
  for (std::size_t i = 0; i < nodes; ++i) {
    network.add_node(node_name('n', i));
  }
  auto connect = [&](std::size_t a, std::size_t b) {
    if (a == b || network.has_route(static_cast<net::NodeId>(a),
                                    static_cast<net::NodeId>(b))) {
      return;
    }
    net::LinkConfig cfg;
    cfg.propagation = sim::from_ns(50.0 + rng.uniform(0.0, 450.0));
    cfg.bandwidth = sim::Bandwidth::from_gbit(25.0 + rng.uniform(0.0, 75.0));
    network.connect(static_cast<net::NodeId>(a), static_cast<net::NodeId>(b),
                    cfg);
    neighbors[a].push_back(static_cast<net::NodeId>(b));
  };
  // Ring backbone (every domain reaches every other) plus random chords.
  for (std::size_t i = 0; i < nodes; ++i) connect(i, (i + 1) % nodes);
  const std::size_t chords = rng.uniform_u64(2 * nodes);
  for (std::size_t c = 0; c < chords; ++c) {
    connect(rng.uniform_u64(nodes), rng.uniform_u64(nodes));
  }

  const sim::Time lookahead = network.min_propagation();
  sim::ParallelEngine pdes(nodes, sim::PdesConfig{1, lookahead});
  struct DomainState {
    sim::Rng rng{0};
    std::uint64_t acc = 0;
    std::uint64_t arrivals = 0;
  };
  std::vector<DomainState> state(nodes);
  for (std::size_t d = 0; d < nodes; ++d) state[d].rng = domain_rng(seed, d);

  // Each arrival folds the delivery into the destination domain's state and
  // forwards to a random neighbor until the hop budget runs dry.
  std::function<void(net::NodeId, int)> bounce = [&](net::NodeId d,
                                                     int budget) {
    DomainState& st = state[d];
    fold(st.acc, pdes.domain(d).now(), d);
    ++st.arrivals;
    if (budget <= 0 || neighbors[d].empty()) return;
    const auto& out = neighbors[d];
    const net::NodeId dst = out[st.rng.uniform_u64(out.size())];
    const std::uint64_t bytes = 64 + st.rng.uniform_u64(4032);
    network.post_routed(pdes, pdes.domain(d).now(), d, dst, bytes,
                        sim::Priority::kBulk, /*flow_salt=*/0,
                        [&bounce, dst, budget](const net::Delivery&) {
                          bounce(dst, budget - 1);
                        });
  };
  for (std::size_t d = 0; d < nodes; ++d) {
    const auto id = static_cast<net::NodeId>(d);
    pdes.post(id, id, state[d].rng.uniform_u64(lookahead) + 1,
              [&bounce, id, hops_per_node] { bounce(id, hops_per_node); });
  }
  pdes.run();

  std::ostringstream os;
  for (std::size_t d = 0; d < nodes; ++d) {
    os << d << ":" << state[d].arrivals << ":" << state[d].acc << ":"
       << pdes.domain(static_cast<sim::DomainId>(d)).executed() << ":"
       << pdes.domain(static_cast<sim::DomainId>(d)).now() << ";";
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    for (const net::NodeId j : neighbors[i]) {
      const auto& link = network.link(static_cast<net::NodeId>(i), j);
      os << "L" << i << ">" << j << "=" << link.bytes_sent() << ","
         << link.packets_sent() << ";";
    }
  }
  return finish(pdes, os);
}

namespace {

void require(bool ok, const std::string& invariant) {
  if (!ok) throw std::logic_error(invariant);
}

Run serialized(std::string observations) {
  Run r;
  r.serialized = std::move(observations);
  return r;
}

/// router -> RateGate(period) -> FIFO -> mux between a source and a sink
/// that fire with the given probabilities, run for 5000 cycles.
std::string axi_run(axi::SettleMode mode, std::uint64_t seed, double valid_p,
                    double ready_p, std::uint64_t period,
                    std::uint64_t& skipped) {
  axi::Testbench tb(axi::CheckMode::kStrict, mode);
  axi::Wire& in = tb.wire("in");
  axi::Wire& r0 = tb.wire("r0");
  axi::Wire& g0 = tb.wire("g0");
  axi::Wire& f0 = tb.wire("f0");
  axi::Wire& out = tb.wire("out");
  axi::Source::Config scfg;
  scfg.saturate = true;
  scfg.valid_probability = valid_p;
  scfg.seed = seed;
  tb.add<axi::Source>("src", in, scfg);
  tb.add<axi::Router>("router", in, std::vector<axi::Wire*>{&r0});
  tb.add<axi::RateGate>("gate", r0, g0, period);
  tb.add<axi::Fifo>("fifo", g0, f0, 8);
  tb.add<axi::RoundRobinMux>("mux", std::vector<axi::Wire*>{&f0}, out);
  axi::Sink::Config kcfg;
  kcfg.ready_probability = ready_p;
  kcfg.seed = seed + 1;
  auto& sink = tb.add<axi::Sink>("sink", out, kcfg);
  auto& mon = tb.add<axi::Monitor>("mon", out, /*check_id_order=*/true);
  tb.run(5000);
  skipped = tb.skipped_cycles();

  std::ostringstream os;
  for (const auto& a : sink.arrivals()) os << a.cycle << ":" << a.beat.id << ",";
  os << ";received=" << sink.received() << " fires=" << mon.fires()
     << " gaps=";
  put(os, mon.gap_stats());
  os << " protocol=" << (tb.sink().clean() ? "clean" : "violated");
  return os.str();
}

/// One SweepRunner job: three hop chains on a private engine and RNG.
std::string sweep_job(std::uint64_t seed, std::size_t i) {
  sim::Engine engine;
  sim::Rng rng = domain_rng(seed, i);
  std::ostringstream os;
  std::uint64_t fired = 0;
  std::function<void()> hop = [&] {
    ++fired;
    os << engine.now() << ",";
    if (fired < 800) engine.schedule_in(1 + rng.uniform_u64(11), hop);
  };
  for (int c = 0; c < 3; ++c) engine.schedule_at(rng.uniform_u64(4), hop);
  engine.run();
  os << ";" << i << ":" << fired << ":" << engine.now() << "\n";
  return os.str();
}

std::string fault_rows(const std::vector<core::FaultProbe>& probes) {
  std::ostringstream os;
  for (const auto& p : probes) {
    os << p.point.period << "," << exact(p.point.loss_rate) << ","
       << p.point.flap_schedule << "," << core::to_string(p.health) << ","
       << p.completed << "," << p.failed << "," << p.retries << ","
       << p.abandoned << "," << p.crc_drops << "," << p.frames_lost << ","
       << p.recovered << "," << p.detached_lenders << ","
       << exact(p.avg_latency_us) << "\n";
  }
  return os.str();
}

}  // namespace

Run engine_collisions(std::uint64_t seed) {
  sim::Engine engine;
  sim::Rng rng(seed);
  sim::OnlineStats times;
  std::ostringstream os;
  std::vector<sim::Engine::EventId> cancellable;

  // A burst of events on a coarse time grid, so many share timestamps; each
  // reschedules children from inside its callback, the pattern that exposes
  // insertion-order bugs in calendar queues.
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
    os << id << "@" << engine.now() << ",";
    times.add(static_cast<double>(engine.now()));
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
  os << ";times=";
  put(os, times);
  Run r = serialized(os.str());
  r.events = engine.executed();
  return r;
}

Run rng_stats(std::uint64_t seed) {
  sim::Rng rng(seed);
  sim::Histogram hist;
  sim::OnlineStats stats;
  std::ostringstream os;
  for (int i = 0; i < 20000; ++i) {
    double v = 1.0;
    v += rng.exponential(50.0);
    v += rng.pareto(1.0, 2.5);
    v += rng.lognormal(1.0, 0.5);
    hist.add(v);
    stats.add(v);
    os << exact(v) << ",";
  }
  os << ";" << hist.summary() << ";";
  put(os, stats);
  return serialized(os.str());
}

Run axi_pipeline(std::uint64_t seed) {
  std::uint64_t skipped = 0;
  return serialized(
      axi_run(axi::default_settle_mode(), seed, 0.7, 0.8, 3, skipped));
}

Run settle_modes(std::uint64_t seed) {
  std::uint64_t naive_skipped = 0;
  std::uint64_t act_skipped = 0;
  const std::string prob =
      axi_run(axi::SettleMode::kActivity, seed, 0.7, 0.8, 3, act_skipped);
  require(axi_run(axi::SettleMode::kNaive, seed, 0.7, 0.8, 3,
                  naive_skipped) == prob,
          "settle_modes: naive and activity schedulers diverged on the "
          "probabilistic pipeline");
  require(naive_skipped == 0,
          "settle_modes: the naive scheduler skipped cycles");
  const std::string gated =
      axi_run(axi::SettleMode::kActivity, seed, 1.0, 1.0, 50, act_skipped);
  require(axi_run(axi::SettleMode::kNaive, seed, 1.0, 1.0, 50,
                  naive_skipped) == gated,
          "settle_modes: naive and activity schedulers diverged on the "
          "PERIOD-50 pipeline");
  // Without a skipped cycle the gated regime never took the fast-forward
  // path, and its equivalence proved nothing.
  require(act_skipped > 0,
          "settle_modes: the activity scheduler skipped no cycle at "
          "PERIOD 50");
  return serialized(prob + "\n" + gated + "\nskipped=" +
                    std::to_string(act_skipped));
}

Run sweep_runner(std::uint64_t seed) {
  const auto job = [seed](std::size_t i) { return sweep_job(seed, i); };
  const std::vector<std::string> serial = sim::SweepRunner(1).run(16, job);
  require(sim::SweepRunner(4).run(16, job) == serial,
          "sweep_runner: the 4-worker sweep diverged from the serial one");
  std::string all;
  for (const std::string& s : serial) all += s;
  return serialized(all);
}

Run fault_matrix(std::uint64_t seed) {
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

  const std::vector<core::FaultProbe> probes = core::assess_fault_matrix(opts, 1);
  const std::string serial = fault_rows(probes);
  require(fault_rows(core::assess_fault_matrix(opts, 8)) == serial,
          "fault_matrix: the 8-worker matrix diverged from the serial one");
  std::uint64_t retries = 0;
  for (const auto& p : probes) retries += p.retries;
  require(retries > 0, "fault_matrix: no access was retried");
  return serialized(serial);
}

Run closed_stream(std::uint64_t period, std::uint64_t elements) {
  auto cluster = twonode(period);
  workloads::StreamConfig cfg;
  cfg.elements = elements;
  cfg.placement = node::Placement::kRemote;
  workloads::Stream stream(cluster->borrower(), cfg);
  const workloads::StreamResult res = stream.run();
  std::ostringstream os;
  os << "valid=" << res.validated << ";";
  for (const auto& k : res.kernels) {
    os << k.kernel << " t=" << k.elapsed << " ";
    put(os, k.context);
  }
  return finish_closed(*cluster, os);
}

namespace {

/// A host array's exact bytes, digested.
template <typename T>
std::uint64_t digest_of(const std::vector<T>& v) {
  return core::fnv1a(std::string(reinterpret_cast<const char*>(v.data()),
                                 v.size() * sizeof(T)));
}

workloads::g500::Graph500Config graph_config(std::uint32_t scale,
                                             node::Placement placement) {
  workloads::g500::Graph500Config cfg;
  cfg.gen.scale = scale;
  cfg.gen.edgefactor = 16;
  cfg.placement = placement;
  return cfg;
}

}  // namespace

Run closed_bfs(std::uint32_t scale, std::uint64_t period,
               node::Placement placement) {
  auto cluster = twonode(period);
  workloads::g500::Graph500 graph(cluster->borrower(),
                                  graph_config(scale, placement));
  const sim::Time construction = graph.run_construction();
  const auto bfs = graph.run_bfs(1);
  std::ostringstream os;
  os << "k1=" << construction << " bfs=" << bfs.elapsed
     << " visited=" << bfs.vertices_visited
     << " edges=" << bfs.edges_traversed << " parents=" << digest_of(bfs.parent)
     << ";";
  return finish_closed(*cluster, os);
}

Run closed_sssp(std::uint32_t scale, std::uint64_t period) {
  auto cluster = twonode(period);
  workloads::g500::Graph500 graph(
      cluster->borrower(), graph_config(scale, node::Placement::kRemote));
  const sim::Time construction = graph.run_construction();
  const auto sssp = graph.run_sssp(1);
  std::ostringstream os;
  os << "k1=" << construction << " sssp=" << sssp.elapsed
     << " visited=" << sssp.vertices_visited
     << " edges=" << sssp.edges_relaxed << " dist=" << digest_of(sssp.dist)
     << " parents=" << digest_of(sssp.parent) << ";";
  return finish_closed(*cluster, os);
}

Run closed_memtier(std::uint64_t period, std::uint64_t keys,
                   std::uint64_t requests) {
  auto cluster = twonode(period);
  workloads::kv::KvStore store(cluster->borrower(),
                               workloads::kv::KvStoreConfig{});
  workloads::kv::MemtierConfig cfg;
  cfg.key_space = keys;
  cfg.requests_per_client = requests;
  workloads::kv::Memtier memtier(cluster->borrower(), store, cfg);
  const workloads::kv::MemtierResult res = memtier.run();
  const sim::Histogram& h = res.latency_us;
  std::ostringstream os;
  os << "req=" << res.requests << " gets=" << res.gets << " sets=" << res.sets
     << " hits=" << res.hits << " t=" << res.elapsed
     << " populate=" << res.populate_elapsed
     << " valid=" << res.validated << " service="
     << exact(res.avg_service_us) << " lat=" << h.count() << "/"
     << exact(h.mean()) << "/" << exact(h.p50()) << "/" << exact(h.p99())
     << "/" << exact(h.max()) << ";";
  return finish_closed(*cluster, os);
}

Run closed_mixed(std::uint64_t lines) {
  auto cluster = twonode(1);
  node::Node& borrower = cluster->borrower();
  const std::uint64_t bytes = lines * mem::kCacheLineBytes;
  const mem::Addr remote = borrower.allocate(bytes, node::Placement::kRemote);
  const mem::Addr local = borrower.allocate(bytes, node::Placement::kLocal);
  node::MemContext ctx = cluster->make_context(
      node::CpuConfig{/*mlp=*/16, sim::from_ns(0.3)}, "mixed");
  for (std::uint64_t i = 0; i < lines; ++i) {
    const mem::Addr off = i * mem::kCacheLineBytes;
    ctx.read(remote + off);
    ctx.write(local + off);
    if (i % 64 == 63) ctx.read(remote + off / 2, /*dependent=*/true);
  }
  ctx.drain();
  std::ostringstream os;
  put(os, ctx.stats());
  return finish_closed(*cluster, os);
}

Run closed_qos(std::uint64_t lines) {
  auto cluster = twonode(1, /*latency_reserved=*/16);
  node::Node& borrower = cluster->borrower();
  const std::uint64_t bytes = lines * mem::kCacheLineBytes;
  const mem::Addr bulk_base =
      borrower.allocate(bytes, node::Placement::kRemote);
  const mem::Addr probe_base =
      borrower.allocate(bytes, node::Placement::kRemote);
  node::MemContext bulk = cluster->make_context(
      node::CpuConfig{/*mlp=*/128, sim::from_ns(0.05)}, "bulk");
  node::MemContext probe = cluster->make_context(
      node::CpuConfig{/*mlp=*/32, sim::from_ns(0.05), sim::Priority::kLatency},
      "probe");
  // The context whose clock is behind issues next (ties go to bulk).
  std::uint64_t b = 0;
  std::uint64_t p = 0;
  while (b < lines || p < lines) {
    if (p >= lines || (b < lines && bulk.now() <= probe.now())) {
      bulk.write(bulk_base + b++ * mem::kCacheLineBytes);
    } else {
      probe.read(probe_base + p++ * mem::kCacheLineBytes);
    }
  }
  bulk.drain();
  probe.drain();
  std::ostringstream os;
  put(os, bulk.stats());
  put(os, probe.stats());
  return finish_closed(*cluster, os);
}

scenario::ScenarioSpec compressed_serving() {
  auto spec = *scenario::builtin("serving_diurnal");
  bench::compress_serving(spec, 2000.0);
  return spec;
}

scenario::ScenarioSpec compressed_chaos() {
  auto spec = *scenario::builtin("chaos_rack");
  bench::compress_chaos(spec, 8000.0);
  return spec;
}

ServingRun serve(const scenario::ScenarioSpec& spec) {
  node::Cluster cluster(spec);
  ServingRun r;
  r.report = core::run_serving(cluster);
  r.events = cluster.pdes()->executed();
  r.windows = cluster.pdes()->windows();
  return r;
}

Row row_of(const Run& run) { return {run.digest(), run.events, run.windows}; }

Row row_of(const ServingRun& run) {
  return {run.report.digest, run.events, run.windows};
}

namespace {

scenario::ScenarioSpec scenario_file(const std::string& file) {
  return scenario::load_file(std::string(TFSIM_SCENARIO_SOURCE_DIR) + "/" +
                             file);
}

}  // namespace

std::vector<std::pair<std::string, Producer>> reference_runs() {
  std::vector<std::pair<std::string, Producer>> runs;
  // CI serving smoke: serving_slo at TFSIM_SERVING_US=2000.
  runs.emplace_back("serving_slo/serving_diurnal.json/us=2000", [] {
    auto spec = scenario_file("serving_diurnal.json");
    bench::compress_serving(spec, 2000.0);
    return row_of(serve(spec));
  });
  // CI chaos smoke: chaos_mttr's two modes over the full timeline.
  for (const bool detector : {true, false}) {
    runs.emplace_back(std::string("chaos_mttr/chaos_rack.json/detector=") +
                          (detector ? "on" : "off"),
                      [detector] {
                        auto spec = scenario_file("chaos_rack.json");
                        spec.detector.enabled = detector;
                        return row_of(serve(spec));
                      });
  }
  // CI fabric smoke: fabric_contention --borrowers=16,64, TFSIM_FABRIC_US=50.
  for (const std::uint32_t b : {16u, 64u}) {
    for (const auto kind : {scenario::TopologyKind::kLeafSpine,
                            scenario::TopologyKind::kDumbbell}) {
      runs.emplace_back(
          "fabric_contention/" + scenario::to_string(kind) +
              "/B=" + std::to_string(b) + "/us=50",
          [b, kind] {
            const auto spec = scenario_file("leafspine_rack128.json");
            const bench::PointResult r =
                bench::run_point(spec.topology, kind, b, sim::from_us(50.0));
            return Row{r.digest, r.events, r.windows};
          });
    }
  }
  // validation_congestion's congested dumbbell: closed-loop NIC traffic
  // through deliver_ex over two switches and a shared trunk.
  for (const int pairs : {1, 4, 8}) {
    runs.emplace_back("congestion_probe/pairs=" + std::to_string(pairs),
                      [pairs] {
                        const bench::CongestedProbe p =
                            bench::run_congested(pairs);
                        return Row{p.digest, p.events, 0};
                      });
  }
  // The mid-run lender kill must fail over, or the row pins a run that
  // never took the failover path.
  for (const std::uint64_t seed : {1ull, 42ull, 20260808ull, 0xD15EA5Eull}) {
    runs.emplace_back("serving_2ms/seed=" + std::to_string(seed), [seed] {
      auto spec = compressed_serving();
      spec.traffic.seed = seed;
      const ServingRun run = serve(spec);
      require(run.report.failovers > 0, "serving_2ms: no failover");
      return row_of(run);
    });
  }
  // The detector must re-stripe and migrate inside the half timeline.
  for (const std::uint64_t seed : {0ull, 1ull, 42ull}) {
    // Seed 0 keeps chaos_rack's own traffic seed.
    runs.emplace_back("chaos_half/seed=" + std::to_string(seed), [seed] {
      auto spec = compressed_chaos();
      if (seed != 0) spec.traffic.seed = seed;
      const ServingRun run = serve(spec);
      require(run.report.restripes > 0, "chaos_half: no ECMP re-stripe");
      require(run.report.failovers > 0, "chaos_half: no failover");
      return row_of(run);
    });
  }
  for (const std::uint64_t seed : {1ull, 42ull}) {
    runs.emplace_back("ring_fabric/seed=" + std::to_string(seed),
                      [seed] { return row_of(ring_fabric(seed)); });
    // The shallow kDrop buffers must tail-drop.
    runs.emplace_back("leafspine_fabric/seed=" + std::to_string(seed), [seed] {
      const Run run = leafspine_fabric(seed);
      require(run.switch_drops > 0, "leafspine_fabric: no switch drop");
      return row_of(run);
    });
  }
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    runs.emplace_back("random_fabric/seed=" + std::to_string(seed) + "/hops=60",
                      [seed] { return row_of(random_fabric(seed, 60)); });
  }
  // Closed-loop miss path on paper_twonode: MSHR slots, the NIC window and
  // the injector at the paper's PERIOD extremes, local misses freeing
  // slots out of issue order, and both window classes.
  for (const std::uint64_t period : {1ull, 64ull}) {
    runs.emplace_back(
        "closed_stream/period=" + std::to_string(period) + "/elements=1500000",
        [period] { return row_of(closed_stream(period, 1'500'000)); });
  }
  runs.emplace_back("closed_bfs/scale=13/period=64",
                    [] { return row_of(closed_bfs(13, 64)); });
  // The application cells of Fig. 5 and Table I: SSSP, a local-memory
  // baseline and Redis under Memtier.
  runs.emplace_back("closed_bfs/scale=13/local", [] {
    return row_of(closed_bfs(13, 1, node::Placement::kLocal));
  });
  runs.emplace_back("closed_sssp/scale=13/period=64",
                    [] { return row_of(closed_sssp(13, 64)); });
  runs.emplace_back("closed_memtier/period=1/keys=2000/requests=20",
                    [] { return row_of(closed_memtier(1, 2000, 20)); });
  runs.emplace_back("closed_mixed/lines=100000",
                    [] { return row_of(closed_mixed(100'000)); });
  runs.emplace_back("closed_qos/reserved=16/lines=40000",
                    [] { return row_of(closed_qos(40'000)); });
  runs.emplace_back(
      "calendar_ring/domains=16/lookahead=300/seed=12648430/chain=40",
      [] { return row_of(calendar_ring(16, 300, 0xC0FFEE, 40)); });
  // Single-engine and worker-pool probes: one calendar under colliding
  // timestamps, the RNG distributions, the AXI pipeline and its two settle
  // schedulers, and serial-vs-parallel SweepRunner and fault matrix.
  for (const std::uint64_t seed : {1ull, 42ull}) {
    const std::string at = "/seed=" + std::to_string(seed);
    runs.emplace_back("engine_collisions" + at,
                      [seed] { return row_of(engine_collisions(seed)); });
    runs.emplace_back("rng_stats" + at,
                      [seed] { return row_of(rng_stats(seed)); });
    runs.emplace_back("axi_pipeline" + at,
                      [seed] { return row_of(axi_pipeline(seed)); });
    runs.emplace_back("settle_modes" + at,
                      [seed] { return row_of(settle_modes(seed)); });
    runs.emplace_back("sweep_runner/workers=1,4" + at,
                      [seed] { return row_of(sweep_runner(seed)); });
    runs.emplace_back("fault_matrix/workers=1,8" + at,
                      [seed] { return row_of(fault_matrix(seed)); });
  }
  return runs;
}

std::string format_row(const std::string& name, const Row& r) {
  char buf[96];
  std::snprintf(buf, sizeof buf, " %016" PRIx64 " %" PRIu64 " %" PRIu64,
                r.digest, r.events, r.windows);
  return name + buf;
}

std::map<std::string, Row> read_table() {
  std::ifstream in(TFSIM_GOLDEN_TABLE);
  if (!in.good()) {
    throw std::runtime_error("cannot open " TFSIM_GOLDEN_TABLE);
  }
  std::map<std::string, Row> table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    Row r;
    fields >> name >> digest >> r.events >> r.windows;
    if (fields.fail()) throw std::runtime_error("malformed row: " + line);
    r.digest = std::stoull(digest, nullptr, 16);
    if (!table.emplace(name, r).second) {
      throw std::runtime_error("duplicate row " + name);
    }
  }
  return table;
}

std::string table_line(const std::string& name) {
  const std::map<std::string, Row> table = read_table();
  const auto it = table.find(name);
  return it == table.end() ? std::string() : format_row(name, it->second);
}

}  // namespace tfsim::golden
