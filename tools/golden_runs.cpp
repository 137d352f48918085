#include "golden_runs.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "net/network.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "node/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/pdes.hpp"
#include "sim/rng.hpp"
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
  spec.traffic.duration_us = 2000.0;
  spec.traffic.diurnal_period_us = 2000.0;
  spec.faults.kill_at_us = 1000.0;
  spec.slo.window_us = 500.0;
  return spec;
}

scenario::ScenarioSpec compressed_chaos() {
  auto spec = *scenario::builtin("chaos_rack");
  const double scale = 0.5;
  spec.traffic.duration_us *= scale;
  spec.slo.window_us *= scale;
  for (scenario::ChaosEventSpec& ev : spec.chaos.events) {
    ev.at_us *= scale;
    ev.for_us *= scale;
  }
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
