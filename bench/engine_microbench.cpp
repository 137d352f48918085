// Event-engine hot-path microbenchmark: schedule/fire, cancellation,
// serving-shaped captures and nested-reschedule throughput of sim::Engine,
// the per-node window protocol, hop-by-hop frame forwarding over a
// leaf/spine fabric, and the two layers of the closed-loop miss path: an
// all-miss walk of the cache hierarchy and a saturated NIC transaction.
//
// Emits BENCH_engine.json (google-benchmark JSON, mirrored into
// $TFSIM_CSV_DIR) unless the caller passes its own --benchmark_out, so CI
// can archive the perf trajectory of the engine from PR to PR.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mem/dram.hpp"
#include "mem/hierarchy.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "nic/nic.hpp"
#include "sim/engine.hpp"
#include "sim/pdes.hpp"

using tfsim::sim::Engine;
using tfsim::sim::Time;

namespace {

// Schedule a batch up front, then drain it: the pure calendar cost with no
// callback work.  Timestamps collide heavily (mod 64) to exercise the
// (time, seq) tie-break path.
void BM_ScheduleFire(benchmark::State& state) {
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Engine e;
    for (std::uint64_t i = 0; i < batch; ++i) {
      e.schedule_at(i % 64, [] {});
    }
    e.run();
    benchmark::DoNotOptimize(e.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) * state.iterations());
}
BENCHMARK(BM_ScheduleFire)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// Schedule, cancel every other event, then drain: the tombstone-skip path.
void BM_ScheduleCancel(benchmark::State& state) {
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  std::vector<Engine::EventId> ids;
  for (auto _ : state) {
    Engine e;
    ids.clear();
    ids.reserve(batch);
    for (std::uint64_t i = 0; i < batch; ++i) {
      ids.push_back(e.schedule_at(i % 64, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) e.cancel(ids[i]);
    e.run();
    benchmark::DoNotOptimize(e.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) * state.iterations());
}
BENCHMARK(BM_ScheduleCancel)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// The calendar cost of a serving-shaped callback: like the core::run_serving
// request path's events, each capture is larger than 16 bytes and holds a
// std::function (the open-loop source's completion functor), so the row
// tracks inline storage of non-trivially-copyable captures against boxing
// them on the heap.
void BM_ScheduleServingShaped(benchmark::State& state) {
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t sink = 0;
  const std::function<void(Time, std::uint64_t)> done =
      [&sink](Time t, std::uint64_t salt) { sink += t ^ salt; };
  for (auto _ : state) {
    Engine e;
    for (std::uint64_t i = 0; i < batch; ++i) {
      e.schedule_at(i % 64, [&e, salt = i * 0x9e3779b97f4a7c15ULL,
                             lender = static_cast<std::uint32_t>(i), done] {
        done(e.now() + lender, salt);
      });
    }
    e.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) * state.iterations());
}
BENCHMARK(BM_ScheduleServingShaped)->Arg(1 << 10)->Arg(1 << 14);

// Timer-wheel churn: a fixed population of self-rescheduling events, the
// steady-state shape of NIC/link/server models (schedule from inside a
// callback, one live event retiring per step).
void BM_NestedReschedule(benchmark::State& state) {
  const auto chains = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t hops = 256;
  for (auto _ : state) {
    Engine e;
    std::uint64_t remaining = chains * hops;
    std::function<void()> hop = [&] {
      if (remaining == 0) return;  // budget spent: let the other chains drain
      --remaining;
      e.schedule_in(1 + remaining % 7, hop);
    };
    for (std::uint64_t c = 0; c < chains; ++c) {
      e.schedule_at(c % 13, hop);
    }
    e.run();
    benchmark::DoNotOptimize(e.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(chains * hops) *
                          state.iterations());
}
BENCHMARK(BM_NestedReschedule)->Arg(16)->Arg(256);

// Per-node calendars: 64 domains of self-rescheduling work with periodic
// cross-domain sends, advanced in lookahead windows.  Per-event compute is
// a deterministic hash spin, so the row tracks the window protocol's
// overhead against a fixed amount of work.
void BM_PdesWindows(benchmark::State& state) {
  using tfsim::sim::DomainId;
  using tfsim::sim::ParallelEngine;
  using tfsim::sim::PdesConfig;

  constexpr std::size_t kDomains = 64;
  constexpr Time kLookahead = 1000;
  constexpr int kHops = 64;
  constexpr int kSpin = 4000;  // hash iterations per event (~us of compute)

  std::uint64_t sink = 0;
  for (auto _ : state) {
    ParallelEngine pdes(kDomains, PdesConfig{1, kLookahead});
    std::vector<std::uint64_t> fold(kDomains, 0);
    std::function<void(DomainId, int)> hop = [&](DomainId d, int depth) {
      std::uint64_t h = pdes.domain(d).now() ^ d;
      for (int i = 0; i < kSpin; ++i) h = h * 6364136223846793005ULL + 1;
      fold[d] ^= h;
      if (depth <= 0) return;
      const auto dst = static_cast<DomainId>((d + 1) % kDomains);
      pdes.post(d, dst, pdes.domain(d).now() + kLookahead,
                [&hop, dst, depth] { hop(dst, depth - 1); });
    };
    for (std::size_t d = 0; d < kDomains; ++d) {
      pdes.post(static_cast<DomainId>(d), static_cast<DomainId>(d),
                1 + (d % kLookahead), [&hop, d] {
                  hop(static_cast<DomainId>(d), kHops);
                });
    }
    pdes.run();
    for (const std::uint64_t f : fold) sink ^= f;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(kDomains * (kHops + 1)) * state.iterations());
}
BENCHMARK(BM_PdesWindows)->Unit(benchmark::kMillisecond)->UseRealTime();

// Hop-by-hop forwarding (net::Network::post_routed) on per-node calendars
// over a 4-leaf/2-spine fabric with 16 hosts: each iteration sends one frame
// from every host to every other host and runs the windows dry.  Every hop
// ends in exactly one calendar event (the next hop or the arrival), so the
// executed events are the hops, and ns_per_hop is the host cost of one
// switch/link traversal plus its calendar hand-off: the net layer that
// perfbench's net.host_ns_per_frame times through deliver_ex, on the routed
// path serving uses.  Network and calendars persist across iterations, so
// the row measures the warm, allocation-free path.
void BM_PostRouted(benchmark::State& state) {
  using tfsim::net::Delivery;
  using tfsim::net::LeafSpineConfig;
  using tfsim::net::LeafSpineFabric;
  using tfsim::net::Network;
  using tfsim::net::NodeId;
  using tfsim::sim::ParallelEngine;
  using tfsim::sim::PdesConfig;

  Network net;
  std::vector<NodeId> hosts;
  for (int i = 0; i < 16; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    hosts.push_back(net.add_node(name));
  }
  LeafSpineConfig cfg;
  cfg.leaves = 4;
  cfg.spines = 2;
  LeafSpineFabric::build(net, cfg, hosts);
  ParallelEngine pdes(net.num_nodes(), PdesConfig{1, net.min_propagation()});

  Time last = 0;  // latest arrival: the next batch starts after it
  std::uint64_t salt = 0;
  const std::uint64_t first = pdes.executed();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const Time start = last + 1;
    for (const NodeId src : hosts) {
      for (const NodeId dst : hosts) {
        if (src == dst) continue;
        net.post_routed(pdes, start, src, dst, 1024,
                        tfsim::sim::Priority::kBulk, ++salt,
                        [&last](const Delivery& d) {
                          last = std::max(last, d.arrival);
                        });
      }
    }
    pdes.run();
    benchmark::DoNotOptimize(last);
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - t0;
  const std::uint64_t hops = pdes.executed() - first;
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
  state.counters["ns_per_hop"] =
      hops == 0 ? 0.0 : elapsed.count() / static_cast<double>(hops);
}
BENCHMARK(BM_PostRouted)->UseRealTime();

// The POWER9-like L1/L2/L3 hierarchy under STREAM copy's access pattern
// (read a line of one array, write the same line of another) with the
// arrays never revisited: every access misses all three levels, allocates
// in each and, once the L3 is full, evicts a dirty victim half the time.
// The mem layer perfbench's mem.host_ns_per_access times, on the all-miss
// path stream_remote drives.
void BM_HierarchyMiss(benchmark::State& state) {
  using tfsim::mem::Addr;
  using tfsim::mem::kCacheLineBytes;
  tfsim::mem::CacheHierarchy caches(tfsim::mem::power9_like_hierarchy());
  constexpr Addr kDst = Addr{1} << 40;  // second array, far above the first
  Addr line = 0;
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i, line += kCacheLineBytes) {
      benchmark::DoNotOptimize(caches.access(line, false));
      benchmark::DoNotOptimize(caches.access(kDst + line, true));
    }
    accesses += 2048;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
BENCHMARK(BM_HierarchyMiss);

// DisaggNic::remote_access at PERIOD 1 with the request window saturated:
// each read arrives when the window grants the previous one, so every
// admission waits for the earliest completion (window, injector, two link
// crossings, lender DRAM).  The nic layer perfbench's nic.host_ns_per_tx
// times.
void BM_NicRemoteAccess(benchmark::State& state) {
  using tfsim::nic::DisaggNic;
  using tfsim::nic::NicConfig;
  tfsim::net::Network network;
  const auto self = network.add_node("borrower");
  const auto lender = network.add_node("lender");
  network.connect(self, lender, tfsim::net::LinkConfig{});
  network.connect(lender, self, tfsim::net::LinkConfig{});
  tfsim::mem::Dram lender_dram{tfsim::mem::DramConfig{}};
  const NicConfig cfg;
  DisaggNic nic(cfg, network, self);
  nic.register_lender(1, lender, &lender_dram);
  constexpr tfsim::mem::Addr kBase = 0x1000'0000;
  constexpr std::uint64_t kSpan = 64 * tfsim::sim::kMiB;
  nic.translator().add_segment(tfsim::nic::Segment{
      tfsim::mem::Range{kBase, kSpan}, 0, 1, "bench"});
  if (!nic.attach()) {
    state.SkipWithError("NIC failed to attach");
    return;
  }
  Time now = 0;
  std::uint64_t offset = 0;
  for (auto _ : state) {
    const auto t = nic.remote_access(now, kBase + offset, false);
    if (!t.has_value()) {
      state.SkipWithError("remote access failed");
      return;
    }
    now = t->admitted - cfg.processing_latency;
    offset = (offset + tfsim::mem::kCacheLineBytes) % kSpan;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(nic.reads()));
  state.counters["window_stalls"] =
      static_cast<double>(nic.window().stalls());
}
BENCHMARK(BM_NicRemoteAccess);

}  // namespace

int main(int argc, char** argv) {
  // Default to a JSON report next to the CSVs so CI can archive it.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  if (!has_out) {
    out_flag = "--benchmark_out=" + tfsim::bench::csv_path("BENCH_engine.json");
    args.push_back(out_flag.data());
    args.push_back(const_cast<char*>("--benchmark_out_format=json"));
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
