// Ablation: hot-page migration (the paper's proposed OS-level mechanism).
//
// Under sustained delay injection the migration daemon moves pages whose
// remote-access count crosses its hotness threshold (node::MigrationConfig
// defaults) to local DRAM.  The bench runs Graph500 BFS, whose parent and
// visited arrays are re-touched across epochs, and STREAM, whose arrays
// are swept in long bursts, with migration off and on, and reports what
// the daemon moved and what it bought.  It does not assume a selective
// policy: at default sizes STREAM's pages qualify too (3663 pages, 228 MB,
// 1.02x) alongside BFS's (1406 pages, 87 MB, 1.31x); the closing line is
// printed from the measured rows.
//
// The four runs (BFS and STREAM, migration off and on) are independent
// Sessions, so the sweep fans out across $TFSIM_JOBS workers; the shared
// edge list is generated once up front and only read inside the sweep.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "sim/config.hpp"

using namespace tfsim;

namespace {

constexpr std::uint64_t kPeriod = 32;  // sustained moderate delay

enum class Workload { kBfs, kStream };

struct Point {
  Workload workload;
  bool migration;
};

/// Each workload's migration-off run, then its migration-on run;
/// print_table pairs them in this order.
const std::vector<Point> kPoints = {{Workload::kBfs, false},
                                    {Workload::kBfs, true},
                                    {Workload::kStream, false},
                                    {Workload::kStream, true}};

struct Outcome {
  sim::Time elapsed = 0;
  std::uint64_t pages_migrated = 0;
  std::uint64_t mb_migrated = 0;
};

Outcome run_point(const Point& p, const workloads::g500::Graph500Config& gcfg,
                  const workloads::g500::EdgeList& edges) {
  core::SessionConfig cfg;
  cfg.scenario.injector.period = kPeriod;
  if (p.migration) cfg.migration = node::MigrationConfig{};
  core::Session session(cfg);
  Outcome out;
  out.elapsed = p.workload == Workload::kBfs
                    ? session.run_bfs_job(gcfg, edges, 1).total()
                    : session.run_stream(bench::stream_config()).total_elapsed;
  if (p.migration) {
    const auto& stats = session.cluster().borrower().migrator()->stats();
    out.pages_migrated = stats.pages_migrated;
    out.mb_migrated = stats.bytes_migrated >> 20;
  }
  return out;
}

/// One row per workload from its (off, on) pair of outcomes.
void print_table(const std::vector<Outcome>& outcomes) {
  core::Table table(
      "Ablation: hot-page migration under PERIOD=" + std::to_string(kPeriod) +
          " injection",
      {"workload", "migration off (ms)", "migration on (ms)", "speedup",
       "pages migrated", "MB migrated"});
  const auto row = [&](const char* name, const Outcome& off,
                       const Outcome& on) {
    table.row({name, core::Table::num(sim::to_ms(off.elapsed), 1),
               core::Table::num(sim::to_ms(on.elapsed), 1),
               core::Table::ratio(
                   core::degradation_from_times(off.elapsed, on.elapsed)),
               std::to_string(on.pages_migrated),
               std::to_string(on.mb_migrated)});
  };
  row("Graph500 BFS job", outcomes[0], outcomes[1]);
  row("STREAM", outcomes[2], outcomes[3]);
  table.print();
  table.to_csv(bench::csv_path("ablation_migration.csv"));
  const auto summary = [](const char* name, const Outcome& off,
                          const Outcome& on) {
    std::printf("%s: %llu pages (%llu MB) migrated, %.2fx", name,
                static_cast<unsigned long long>(on.pages_migrated),
                static_cast<unsigned long long>(on.mb_migrated),
                core::degradation_from_times(off.elapsed, on.elapsed));
  };
  summary("Graph500 BFS job", outcomes[0], outcomes[1]);
  std::printf("; ");
  summary("STREAM", outcomes[2], outcomes[3]);
  std::printf(".\n");
}

}  // namespace

int main(int argc, char** argv) {
  sim::ArgParser args(
      "Ablation: hot-page migration under sustained delay injection");
  if (!args.parse(argc, argv)) return 1;

  // Generate the shared graph input once, before the fan-out.
  auto gcfg = bench::graph_config();
  gcfg.gen.scale = std::min<std::uint32_t>(gcfg.gen.scale, 18);
  const workloads::g500::EdgeList edges =
      workloads::g500::kronecker_generate(gcfg.gen);
  const auto outcomes =
      bench::run_sweep("ablation_migration", kPoints, [&](const Point& p) {
        return run_point(p, gcfg, edges);
      });
  print_table(outcomes);
  return 0;
}
