// Scenario smoke check: load every scenario file, verify the JSON
// round-trips exactly, build the cluster, attach the remote memory, and
// push a short burst of traffic through every borrower NIC.  Exit status:
// 0 when every scenario ran, 1 when one failed to assemble or run (each
// failure prints "[<name>] FAIL: <why>"), 2 when one did not parse.
//
// CI runs this over each checked-in scenarios/*.json so a file that rots
// (schema drift, typo'd key, unbuildable topology) fails the build, not
// the first user who tries it.  Usage: scenario_smoke <name-or-file>...
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/serving.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/units.hpp"
#include "workloads/stream/stream_flow.hpp"

using namespace tfsim;

namespace {

bool run(const std::string& name, const scenario::ScenarioSpec& spec) {
  node::Cluster cluster(spec);

  // Serving scenarios carry their own open-loop traffic; run one full
  // cycle through the routed dispatcher instead of the NIC flow smoke.
  if (spec.traffic.enabled()) {
    const core::ServingReport rep = core::run_serving(cluster);
    if (rep.totals.completed == 0 || !rep.balanced) {
      std::fprintf(stderr, "[%s] FAIL: serving completed=%llu balanced=%d\n",
                   name.c_str(),
                   static_cast<unsigned long long>(rep.totals.completed),
                   rep.balanced ? 1 : 0);
      return false;
    }
    std::printf("[%s] OK: %zu node(s), serving %llu/%llu completed, "
                "%llu/%zu windows met SLO\n",
                name.c_str(), cluster.num_nodes(),
                static_cast<unsigned long long>(rep.totals.completed),
                static_cast<unsigned long long>(rep.totals.offered),
                static_cast<unsigned long long>(rep.windows_met),
                rep.windows.size());
    return true;
  }

  if (!cluster.attach_remote()) {
    std::fprintf(stderr, "[%s] FAIL: attach_remote\n", name.c_str());
    return false;
  }

  // A short closed-loop flow per borrower: exercises the NIC pipeline,
  // the fabric (trunk routes included), and every striped chunk mapping.
  const sim::Time stop = sim::from_us(200.0);
  std::vector<std::unique_ptr<workloads::RemoteStreamFlow>> flows;
  for (std::size_t i = 0; i < cluster.num_borrowers(); ++i) {
    workloads::FlowConfig cfg;
    cfg.concurrency = 32;
    cfg.base = cluster.remote_base(i);
    cfg.span_bytes = cluster.remote_span(i);
    cfg.stop_at = stop;
    flows.push_back(std::make_unique<workloads::RemoteStreamFlow>(
        cluster.engine(), cluster.borrower(i).nic(), cfg));
  }
  for (auto& f : flows) f->start();
  cluster.engine().run();

  std::uint64_t lines = 0;
  for (const auto& f : flows) lines += f->stats().lines_completed;
  if (lines == 0) {
    std::fprintf(stderr, "[%s] FAIL: no traffic completed\n", name.c_str());
    return false;
  }
  std::printf("[%s] OK: %zu node(s), %zu borrower(s), %zu lender(s), "
              "%llu lines in %.0f us\n",
              name.c_str(), cluster.num_nodes(), cluster.num_borrowers(),
              cluster.num_lenders(), static_cast<unsigned long long>(lines),
              sim::to_us(stop));
  return true;
}

bool smoke(const std::string& name) {
  const scenario::ScenarioSpec spec = bench::load_scenario(name);

  // Round-trip: the resolved dump must parse back to an identical dump.
  const std::string dumped = scenario::resolved_json(spec);
  if (scenario::resolved_json(scenario::parse(dumped)) != dumped) {
    std::fprintf(stderr, "[%s] FAIL: resolved JSON does not round-trip\n",
                 name.c_str());
    return false;
  }
  // A spec that parsed can still fail to assemble or run; report it like
  // any other failure instead of terminating.
  try {
    return run(name, spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[%s] FAIL: %s\n", name.c_str(), e.what());
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: scenario_smoke <name-or-file>...\n");
    return 2;
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) ok = smoke(argv[i]) && ok;
  return ok ? 0 : 1;
}
