// Host cost per call of each hot layer, measured by replaying inputs of the
// workload's kind into the layer's public entry point on a fresh instance:
//   mem  mem::CacheHierarchy::access    (STREAM's four kernels)
//   nic  nic::DisaggNic::remote_access  (saturating requester at the PERIOD)
//   net  net::Network::deliver_ex       (request/response on the fabric)
//   sim  sim::ParallelEngine            (cross-domain events in windows)
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "capi/frame.hpp"
#include "mem/hierarchy.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/pdes.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tfsim;

namespace {

constexpr std::uint64_t kLine = mem::kCacheLineBytes;
// Wire sizes of a NIC transaction's frames (header + TL frame [+ line]).
constexpr std::uint64_t kCmdBytes = net::kPacketHeaderBytes + capi::kFrameBytes;
constexpr std::uint64_t kDataBytes = kCmdBytes + kLine;

template <typename Fn>
double ns_per_call(std::uint64_t calls, Fn&& body) {
  const Clock::time_point t0 = Clock::now();
  body();
  return seconds_between(t0, Clock::now()) * 1e9 /
         static_cast<double>(calls == 0 ? 1 : calls);
}

scenario::ScenarioSpec load(const Options& opt, const char* name) {
  return scenario::load_file(opt.scenario_dir + "/" + name + ".json");
}

/// STREAM's access stream: copy, scale, add, triad over three arrays, one
/// access per array line (reads for sources, a write for the destination).
double mem_stream(std::uint64_t elements) {
  mem::CacheHierarchy caches(mem::power9_like_hierarchy());
  const std::uint64_t lines = elements * sizeof(double) / kLine;
  const mem::Addr a = 0, b = lines * kLine, c = 2 * lines * kLine;
  const auto kernel = [&](std::initializer_list<mem::Addr> srcs, mem::Addr dst) {
    for (std::uint64_t i = 0; i < lines; ++i) {
      for (const mem::Addr s : srcs) caches.access(s + i * kLine, false);
      caches.access(dst + i * kLine, true);
    }
  };
  // 2 + 2 + 3 + 3 accesses per line across the four kernels.
  return ns_per_call(10 * lines, [&] {
    kernel({a}, c);
    kernel({c}, b);
    kernel({a, b}, c);
    kernel({b, c}, a);
  });
}

/// A saturating requester on the borrower NIC: each transaction arrives when
/// the previous one was admitted, so the window stays as full as in the
/// workload; writes are spread evenly at the workload's write share.
double nic_tx(const Options& opt, std::uint64_t period, double write_share,
              std::uint64_t calls) {
  scenario::ScenarioSpec spec = load(opt, "paper_twonode");
  spec.injector.period = period;
  node::Cluster cluster(spec);
  if (!cluster.attach_remote()) throw std::runtime_error("replay: attach failed");
  nic::DisaggNic& nic = cluster.borrower().nic();
  const mem::Addr base = cluster.remote_base(0);
  const std::uint64_t span_lines = cluster.remote_span(0) / kLine;
  const sim::Time processing = nic.config().processing_latency;
  sim::Time now = 0;
  return ns_per_call(calls, [&] {
    for (std::uint64_t i = 0; i < calls; ++i) {
      const bool write =
          std::floor(static_cast<double>(i + 1) * write_share) >
          std::floor(static_cast<double>(i) * write_share);
      const auto t = nic.remote_access(now, base + (i % span_lines) * kLine, write);
      if (!t.has_value()) throw std::runtime_error("replay: NIC access failed");
      now = t->admitted - processing;
    }
  });
}

/// Request/response frame pairs between every borrower and a lender over the
/// scenario's fabric, one pair per frame-pair serialization time.
double net_frames(const scenario::ScenarioSpec& spec, std::uint64_t req_bytes,
                  std::uint64_t resp_bytes, std::uint64_t pairs_to_send) {
  node::Cluster cluster(spec);
  net::Network& net = cluster.network();
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  for (std::size_t b = 0; b < cluster.num_borrowers(); ++b) {
    const std::size_t l = b % cluster.num_lenders();
    pairs.emplace_back(cluster.borrower(b).net_id(),
                       cluster.lender(l).net_id());
  }
  const sim::Time gap =
      spec.topology.link.bandwidth.serialization_time(req_bytes + resp_bytes);
  sim::Time now = 0;
  return ns_per_call(2 * pairs_to_send, [&] {
    for (std::uint64_t i = 0; i < pairs_to_send; ++i) {
      const auto& [src, dst] = pairs[i % pairs.size()];
      const net::Delivery req =
          net.deliver_ex(now, src, dst, req_bytes, sim::Priority::kBulk, i);
      net.deliver_ex(req.arrival, dst, src, resp_bytes, sim::Priority::kBulk, i);
      now += gap;
    }
  });
}

/// Tokens hopping between the serving rack's domains, each hop a
/// cross-domain post one lookahead (plus jitter) ahead, executed in serial
/// barrier windows like the serving run.
double sim_events(const scenario::ScenarioSpec& spec, std::uint64_t events) {
  node::Cluster cluster(spec);
  const sim::ParallelEngine* shape = cluster.pdes();
  if (shape == nullptr) throw std::runtime_error("replay: scenario has no PDES");
  const std::size_t n = shape->num_domains();
  const sim::Time lookahead = shape->lookahead();
  sim::ParallelEngine pe(n, sim::PdesConfig{1, lookahead});
  std::uint64_t left = events;
  std::function<void(sim::DomainId, std::uint64_t)> hop =
      [&](sim::DomainId d, std::uint64_t state) {
        if (left == 0) return;
        --left;
        state = net::mix64(state);
        const auto dst = static_cast<sim::DomainId>(state % n);
        const sim::Time t = pe.domain(d).now() + lookahead + (state >> 32) % lookahead;
        pe.post(d, dst, t, [&hop, dst, state] { hop(dst, state); });
      };
  constexpr std::uint64_t kTokens = 8;
  for (std::uint64_t k = 0; k < kTokens; ++k) {
    const auto d = static_cast<sim::DomainId>(k % n);
    pe.post(d, d, 0, [&hop, d, k] { hop(d, k); });
  }
  const double ns = ns_per_call(1, [&] { pe.run(); });
  return ns / static_cast<double>(pe.executed() == 0 ? 1 : pe.executed());
}

}  // namespace

std::map<std::string, double> replay_layers(const Options& opt,
                                            const Rep& traced) {
  std::map<std::string, double> m;
  const double write_share = traced.layer.count("nic.write_share") != 0
                                 ? traced.layer.at("nic.write_share")
                                 : 0.0;
  const std::uint64_t nic_calls = opt.tiny ? 20'000 : 300'000;
  if (opt.workload == "stream_remote") {
    m["mem.host_ns_per_access"] = mem_stream(stream_elements(opt));
    m["nic.host_ns_per_tx"] = nic_tx(opt, 1, write_share, nic_calls);
    m["net.host_ns_per_frame"] = net_frames(load(opt, "paper_twonode"),
                                            kCmdBytes, kDataBytes, nic_calls);
  } else {
    scenario::ScenarioSpec spec = load(opt, "serving_diurnal");
    spec.pdes.threads = 1;
    m["net.host_ns_per_frame"] =
        net_frames(spec, spec.traffic.req_bytes, spec.traffic.resp_bytes,
                   opt.tiny ? 20'000 : 200'000);
    m["sim.host_ns_per_event"] = sim_events(spec, opt.tiny ? 50'000 : 1'000'000);
  }
  return m;
}

}  // namespace perfbench
