// Golden digest table: every reference run below must reproduce its row of
// tests/golden/digests.txt exactly -- the FNV-1a digest of its canonical
// serialization, the events it executed and the lookahead windows it
// opened.  A run that moved (a deliberate model change or a regression)
// fails with the replacement row printed, so an intended change lands as a
// reviewed diff of the table.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fabric_point.hpp"
#include "golden_runs.hpp"
#include "scenario/scenario.hpp"
#include "sim/units.hpp"

namespace tfsim::golden {
namespace {

scenario::ScenarioSpec scenario_file(const std::string& file) {
  return scenario::load_file(std::string(TFSIM_SOURCE_DIR) + "/scenarios/" +
                             file);
}

using Producer = std::function<Row()>;

/// Every reference run, in table order.
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
  for (const std::uint64_t seed : {1ull, 42ull, 20260808ull, 0xD15EA5Eull}) {
    runs.emplace_back("serving_2ms/seed=" + std::to_string(seed), [seed] {
      auto spec = compressed_serving();
      spec.traffic.seed = seed;
      return row_of(serve(spec));
    });
  }
  for (const std::uint64_t seed : {0ull, 1ull, 42ull}) {
    // Seed 0 keeps chaos_rack's own traffic seed.
    runs.emplace_back("chaos_half/seed=" + std::to_string(seed), [seed] {
      auto spec = compressed_chaos();
      if (seed != 0) spec.traffic.seed = seed;
      return row_of(serve(spec));
    });
  }
  for (const std::uint64_t seed : {1ull, 42ull}) {
    runs.emplace_back("ring_fabric/seed=" + std::to_string(seed),
                      [seed] { return row_of(ring_fabric(seed)); });
    runs.emplace_back("leafspine_fabric/seed=" + std::to_string(seed),
                      [seed] { return row_of(leafspine_fabric(seed)); });
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
  return runs;
}

TEST(GoldenTableTest, EveryReferenceRunMatchesItsRow) {
  const std::map<std::string, Row> table = read_table();
  std::set<std::string> seen;
  for (const auto& [name, produce] : reference_runs()) {
    const Row actual = produce();
    seen.insert(name);
    const auto it = table.find(name);
    if (it == table.end()) {
      ADD_FAILURE() << "no golden row for " << name << "; add:\n"
                    << format_row(name, actual);
    } else if (!(it->second == actual)) {
      ADD_FAILURE() << "golden row moved:\n  table:  "
                    << format_row(name, it->second)
                    << "\n  replace with:\n" << format_row(name, actual);
    }
  }
  for (const auto& [name, row] : table) {
    EXPECT_TRUE(seen.count(name) != 0)
        << "stale golden row (no reference run): " << format_row(name, row);
  }
}

}  // namespace
}  // namespace tfsim::golden
