#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json_leaf.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "sim/units.hpp"

namespace tfsim::scenario {
namespace {

/// The JsonError message parsing `text` raises; "" when it parses.
std::string rejection(const std::string& text) {
  try {
    parse(text);
  } catch (const JsonError& e) {
    return e.what();
  }
  return "";
}

/// Parsing `text` must fail with a message containing `needle`.
void expect_rejected(const std::string& text, const std::string& needle) {
  const std::string what = rejection(text);
  EXPECT_NE(what.find(needle), std::string::npos)
      << "expected \"" << needle << "\" in \"" << what << "\"";
}

// --- built-ins ---------------------------------------------------------

TEST(ScenarioBuiltinTest, LookupByFileStem) {
  EXPECT_TRUE(builtin("paper_twonode").has_value());
  EXPECT_TRUE(builtin("pooling_1xN").has_value());
  EXPECT_TRUE(builtin("trunk_contention").has_value());
  EXPECT_TRUE(builtin("leafspine_rack128").has_value());
  EXPECT_FALSE(builtin("no-such-scenario").has_value());
}

TEST(ScenarioBuiltinTest, LeafSpineRackShape) {
  const ScenarioSpec spec = leafspine_rack();
  EXPECT_EQ(spec.topology.kind, TopologyKind::kLeafSpine);
  EXPECT_EQ(spec.topology.leaves, 8u);
  EXPECT_EQ(spec.topology.spines, 4u);
  EXPECT_EQ(spec.topology.switch_count(), 12u);
  EXPECT_EQ(spec.expanded_node_count(), 256u);  // 128 borrowers + 128 lenders
  EXPECT_TRUE(spec.pdes.enabled());
  EXPECT_EQ(spec.sweep.borrowers,
            (std::vector<std::uint32_t>{16, 32, 64, 128, 256}));
}

TEST(ScenarioBuiltinTest, SwitchCountPerKind) {
  ScenarioSpec spec;
  spec.topology.kind = TopologyKind::kDirect;
  EXPECT_EQ(spec.topology.switch_count(), 0u);
  spec.topology.kind = TopologyKind::kDumbbell;
  EXPECT_EQ(spec.topology.switch_count(), 2u);
  spec.topology.kind = TopologyKind::kLeafSpine;
  spec.topology.leaves = 3;
  spec.topology.spines = 2;
  EXPECT_EQ(spec.topology.switch_count(), 5u);
}

TEST(ScenarioBuiltinTest, PaperTwoNodeMatchesTestbedDefaults) {
  const ScenarioSpec spec = paper_two_node();
  ASSERT_EQ(spec.nodes.size(), 2u);
  EXPECT_EQ(spec.nodes[0].role, Role::kBorrower);
  EXPECT_EQ(spec.nodes[1].role, Role::kLender);
  EXPECT_TRUE(spec.nodes[0].nic_enabled());
  EXPECT_FALSE(spec.nodes[1].nic_enabled());
  ASSERT_EQ(spec.reservations.size(), 1u);
  EXPECT_EQ(spec.reservations[0].name, "thymesisflow-borrowed");
  // The AC922 constants: 512 GiB per node, a 129-entry window at PERIOD 1,
  // 16 GiB borrowed over one direct cable.
  EXPECT_EQ(spec.nodes[0].dram.capacity_bytes, 512 * sim::kGiB);
  EXPECT_EQ(spec.nodes[1].dram.capacity_bytes, 512 * sim::kGiB);
  EXPECT_EQ(spec.nodes[0].nic.window_entries, 129u);
  EXPECT_EQ(spec.injector.period, 1u);
  EXPECT_EQ(spec.reservations[0].size_gib, 16u);
  EXPECT_EQ(spec.topology.kind, TopologyKind::kDirect);
}

TEST(ScenarioBuiltinTest, CountExpansionAndOverrides) {
  ScenarioSpec spec = pooling_1xN(4);
  EXPECT_EQ(spec.expanded_node_count(), 5u);  // 1 borrower + 4 lenders
  spec.set_lender_count(8);
  EXPECT_EQ(spec.expanded_node_count(), 9u);
  spec.set_borrower_count(2);
  EXPECT_EQ(spec.expanded_node_count(), 10u);
}

// --- JSON parse / serialize --------------------------------------------

TEST(ScenarioJsonTest, ResolvedJsonRoundTripsExactly) {
  for (const char* name : {"paper_twonode", "pooling_1xN", "trunk_contention",
                           "leafspine_rack128"}) {
    const ScenarioSpec spec = *builtin(name);
    const std::string dumped = resolved_json(spec);
    EXPECT_EQ(resolved_json(parse(dumped)), dumped) << name;
  }
}

TEST(ScenarioJsonTest, LeafSpineTopologyBlockParses) {
  const ScenarioSpec spec = parse(R"({
    "name": "rack",
    "nodes": [
      {"name": "b", "role": "borrower", "count": 4},
      {"name": "l", "role": "lender", "count": 4}
    ],
    "topology": {"kind": "leaf_spine", "leaves": 2, "spines": 3,
                 "uplink": {"bandwidth_gbit": 200, "propagation_ns": 450},
                 "switch": {"buffer_kib": 64, "policy": "drop"}}
  })");
  EXPECT_EQ(spec.topology.kind, TopologyKind::kLeafSpine);
  EXPECT_EQ(spec.topology.leaves, 2u);
  EXPECT_EQ(spec.topology.spines, 3u);
  EXPECT_DOUBLE_EQ(spec.topology.uplink.bandwidth.gbit_per_sec(), 200.0);
  EXPECT_EQ(spec.topology.uplink.propagation, sim::from_ns(450.0));
  EXPECT_EQ(spec.topology.sw.buffer_bytes, 64u * 1024u);
  EXPECT_EQ(spec.topology.sw.policy, net::QueuePolicy::kDrop);
  const std::string dumped = resolved_json(spec);
  EXPECT_EQ(resolved_json(parse(dumped)), dumped);
}

TEST(ScenarioJsonTest, TopologyDefaultsStaySwitchless) {
  const ScenarioSpec spec = parse(R"({"nodes": [{"name": "b"}]})");
  EXPECT_EQ(spec.topology.kind, TopologyKind::kDirect);
  EXPECT_EQ(spec.topology.leaves, 2u);
  EXPECT_EQ(spec.topology.spines, 2u);
  EXPECT_EQ(spec.topology.sw.policy, net::QueuePolicy::kBackpressure);
}

TEST(ScenarioJsonTest, LeafSpineValidation) {
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "topology": {"kind": "leaf_spine", "leaves": 0}})"),
               JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "topology": {"kind": "leaf_spine", "spines": 0}})"),
               JsonError);
  EXPECT_THROW(
      parse(R"({"nodes": [{"name": "b"}],
                "topology": {"switch": {"policy": "red"}}})"),
      JsonError)
      << "unknown queue policy";
  EXPECT_THROW(
      parse(R"({"nodes": [{"name": "b"}],
                "topology": {"switch": {"depth_kib": 64}}})"),
      JsonError)
      << "unknown switch key";
}

TEST(ScenarioJsonTest, SwitchedFabricNeedsABorrowerAndALender) {
  // trunk_contention (scenarios/trunk_contention.json) without its lender
  // declaration: a dumbbell with nothing behind its second switch.
  Json doc = to_json(*builtin("trunk_contention"));
  Json borrowers_only = Json::array();
  borrowers_only.push(doc.find("nodes")->items().at(0));
  doc.set("nodes", borrowers_only);
  expect_rejected(doc.dump(),
                  "nodes: a dumbbell topology needs at least one borrower "
                  "and one lender");
  expect_rejected(R"({"nodes": [{"name": "l", "role": "lender"}],
                      "topology": {"kind": "leaf_spine"}})",
                  "nodes: a leaf_spine topology needs at least one borrower "
                  "and one lender");
  EXPECT_EQ(rejection(R"({"nodes": [{"name": "b"}]})"), "")
      << "a direct topology keeps its borrower-only default";
}

TEST(ScenarioJsonTest, UnitsBearingKeysParse) {
  const ScenarioSpec spec = parse(R"({
    "name": "mini",
    "policy": "most-free",
    "nodes": [
      {"name": "b", "role": "borrower",
       "dram": {"capacity_gib": 2, "bandwidth_gbyte": 70, "latency_ns": 50},
       "nic": {"window_entries": 64, "period": 8}},
      {"name": "l", "role": "lender", "count": 3}
    ],
    "topology": {"kind": "dumbbell",
                 "trunk": {"bandwidth_gbit": 50, "propagation_ns": 600}},
    "injector": {"period": 16},
    "reservations": [{"size_gib": 1, "chunks": 3, "name": "r"}],
    "sweep": {"periods": [1, 100]}
  })");
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.policy, "most-free");
  ASSERT_EQ(spec.nodes.size(), 2u);
  EXPECT_EQ(spec.nodes[0].dram.capacity_bytes, 2 * sim::kGiB);
  EXPECT_DOUBLE_EQ(spec.nodes[0].dram.bus_bandwidth.gbyte_per_sec(), 70.0);
  EXPECT_EQ(spec.nodes[0].dram.access_latency, sim::from_ns(50.0));
  EXPECT_EQ(spec.nodes[0].nic.window_entries, 64u);
  EXPECT_EQ(spec.nodes[0].nic.period, 8u);
  EXPECT_EQ(spec.nodes[1].count, 3u);
  EXPECT_FALSE(spec.nodes[1].nic_enabled()) << "lender default: no NIC";
  EXPECT_EQ(spec.topology.kind, TopologyKind::kDumbbell);
  EXPECT_DOUBLE_EQ(spec.topology.trunk.bandwidth.gbit_per_sec(), 50.0);
  EXPECT_EQ(spec.topology.trunk.propagation, sim::from_ns(600.0));
  EXPECT_EQ(spec.injector.period, 16u);
  ASSERT_EQ(spec.reservations.size(), 1u);
  EXPECT_EQ(spec.reservations[0].chunks, 3u);
  EXPECT_EQ(spec.sweep.periods, (std::vector<std::uint64_t>{1, 100}));
}

TEST(ScenarioJsonTest, FaultsBlockParses) {
  const ScenarioSpec spec = parse(R"({
    "name": "faulty",
    "nodes": [
      {"name": "b", "role": "borrower",
       "nic": {"retry_timeout_us": 10, "retry_backoff": 1.5,
               "max_retries": 3, "detach_threshold": 2}},
      {"name": "l", "role": "lender"}
    ],
    "faults": {
      "loss_rate": 0.01,
      "corrupt_rate": 0.001,
      "seed": 9,
      "flaps": [{"at_us": 50, "for_us": 25, "factor": 0},
                {"at_us": 120, "for_us": 40, "factor": 0.25}],
      "kill_lender": {"node": "l", "at_us": 200}
    }
  })");
  EXPECT_TRUE(spec.faults.enabled());
  EXPECT_DOUBLE_EQ(spec.faults.link.loss_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.faults.link.corrupt_rate, 0.001);
  EXPECT_EQ(spec.faults.link.seed, 9u);
  ASSERT_EQ(spec.faults.link.flaps.size(), 2u);
  EXPECT_EQ(spec.faults.link.flaps[0].start, sim::from_us(50.0));
  EXPECT_EQ(spec.faults.link.flaps[0].duration, sim::from_us(25.0));
  EXPECT_TRUE(spec.faults.link.flaps[0].down());
  EXPECT_DOUBLE_EQ(spec.faults.link.flaps[1].bandwidth_factor, 0.25);
  EXPECT_EQ(spec.faults.kill_lender, "l");
  EXPECT_DOUBLE_EQ(spec.faults.kill_at_us, 200.0);
  // The nic retry knobs landed in the replay config.
  EXPECT_EQ(spec.nodes[0].nic.replay.retry_timeout, sim::from_us(10.0));
  EXPECT_DOUBLE_EQ(spec.nodes[0].nic.replay.backoff, 1.5);
  EXPECT_EQ(spec.nodes[0].nic.replay.max_retries, 3u);
  EXPECT_EQ(spec.nodes[0].nic.replay.detach_threshold, 2u);
}

TEST(ScenarioJsonTest, FaultsDefaultToPristine) {
  const ScenarioSpec spec = parse(R"({"nodes": [{"name": "b"}]})");
  EXPECT_FALSE(spec.faults.enabled());
  EXPECT_TRUE(spec.faults.kill_lender.empty());
}

TEST(ScenarioJsonTest, FaultySpecRoundTripsExactly) {
  ScenarioSpec spec = *builtin("paper_twonode");
  spec.faults.link.loss_rate = 1e-3;
  spec.faults.link.flaps.push_back(
      net::FlapSpec{sim::from_us(50.0), sim::from_us(25.0), 0.0});
  spec.faults.kill_lender = "lender";
  spec.faults.kill_at_us = 300.0;
  const std::string dumped = resolved_json(spec);
  EXPECT_EQ(resolved_json(parse(dumped)), dumped);
}

TEST(ScenarioJsonTest, FaultsUnknownKeysRejected) {
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "faults": {"loss": 0.1}})"),
               JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "faults": {"flaps": [{"at_us": 1, "dur_us": 2}]}})"),
               JsonError);
  EXPECT_THROW(
      parse(R"({"nodes": [{"name": "b"}],
                "faults": {"kill_lender": {"node": "l", "when_us": 5}}})"),
      JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "faults": {"kill_lender": {"at_us": 5}}})"),
               JsonError)
      << "kill_lender requires a node name";
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b",
                          "nic": {"retry_us": 10}}]})"),
               JsonError);
}

TEST(ScenarioJsonTest, PdesBlockParsesAndRoundTrips) {
  const ScenarioSpec spec = parse(R"({
    "name": "pdes_mini",
    "nodes": [{"name": "b", "role": "borrower"}, {"name": "l", "count": 3}],
    "pdes": {"threads": 1, "lookahead_ns": 250}
  })");
  EXPECT_TRUE(spec.pdes.enabled());
  EXPECT_EQ(spec.pdes.threads, 1u);
  EXPECT_DOUBLE_EQ(spec.pdes.lookahead_ns, 250.0);
  const std::string dumped = resolved_json(spec);
  EXPECT_EQ(resolved_json(parse(dumped)), dumped);

  // Default: PDES off, lookahead derived from the fabric.
  const ScenarioSpec off = parse(R"({"nodes": [{"name": "b"}]})");
  EXPECT_FALSE(off.pdes.enabled());
  EXPECT_EQ(off.pdes.threads, 0u);
  EXPECT_DOUBLE_EQ(off.pdes.lookahead_ns, 0.0);
}

TEST(ScenarioJsonTest, PdesBlockRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "pdes": {"workers": 4}})"),
               JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "pdes": {"threads": 1, "lookahead_ns": -1}})"),
               JsonError)
      << "negative lookahead must be rejected at parse time";
}

TEST(ScenarioJsonTest, UnknownKeysRejected) {
  EXPECT_THROW(parse(R"({"name": "x", "bogus": 1})"), JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b", "typo_role": "borrower"}]})"),
               JsonError);
  // The error names the full path of the unknown key.
  expect_rejected(R"({"nodes": [{"name": "b"}],
                      "topology": {"link": {"bandwidth_mbit": 1}}})",
                  "topology.link.bandwidth_mbit: unknown key");
  expect_rejected(R"({"nodes": [{"name": "a"}, {"name": "b", "typo": 1}]})",
                  "nodes[1].typo: unknown key");
}

TEST(ScenarioJsonTest, InvalidValuesRejected) {
  EXPECT_THROW(parse(R"({"nodes": [{"role": "overlord"}]})"), JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "topology": {"kind": "ring"}})"),
               JsonError);
  EXPECT_THROW(parse("{"), JsonError);            // truncated document
  EXPECT_THROW(parse(R"({"name": 42})"), JsonError);  // kind mismatch

  // Every rejection names the full path of the offending field.
  expect_rejected(R"({"name": 42})", "name: must be a string, got 42");
  expect_rejected(R"({"nodes": [{"role": "overlord"}]})",
                  R"(nodes[0].role: must be one of "borrower", "lender")");
  expect_rejected(R"({"nodes": [
                        {"name": "a"},
                        {"name": "b", "nic": {"window_entries": -1}}]})",
                  "nodes[1].nic.window_entries: must be an integer in "
                  "[1, 4294967295], got -1");
  expect_rejected(R"({"nodes": [{"name": "b", "nic": {"period": 0.5}}]})",
                  "nodes[0].nic.period: must be an integer");
  expect_rejected(R"({"nodes": [{"name": "b", "dram": {"capacity_gib": 0}}]})",
                  "nodes[0].dram.capacity_gib: must be a number in");
  expect_rejected(R"({"nodes": [{"name": "b"}],
                      "topology": {"link": {"propagation_ns": -1}}})",
                  "topology.link.propagation_ns: must be a number in");
  expect_rejected(R"({"nodes": [{"name": "b"}],
                      "traffic": {"tenants": [{"name": "t", "weight": 0}]}})",
                  "traffic.tenants[0].weight: must be an integer in "
                  "[1, 4294967295], got 0");
  expect_rejected(R"({"nodes": [{"name": "b"}],
                      "traffic": {"diurnal_period_us": 1e30}})",
                  "traffic.diurnal_period_us: must be a number in "
                  "[1e-06, 1000000000000], got 1e+30");
  expect_rejected(R"({"nodes": [{"name": "b"}], "chaos": {"events": [
                       {"at_us": 1, "kind": "kill_switch", "target": "s0"},
                       {"at_us": 2, "kind": "kill_switch", "target": "s1"},
                       {"at_us": 3, "kind": "gray_lender", "target": "l0",
                        "factor": 1}]}})",
                  "chaos.events[2].factor: chaos event 2: gray_lender factor");
  expect_rejected(R"({"nodes": [{"name": "b"}], "chaos": {"events": [
                       {"at_us": 1, "kind": "kill_switch", "target": "s0"},
                       {"at_us": 2, "kind": "kill_switch", "target": "s1"},
                       {"at_us": 3, "kind": "gray_lender", "target": "l0",
                        "factor": 1e30}]}})",
                  "chaos.events[2].factor: must be a number in [0, 1000]");
  expect_rejected(R"({"nodes": []})", "nodes: is required");
  expect_rejected(R"({"nodes": [{"name": "b"}], "pdes": {"threads": 8}})",
                  "pdes.threads: must be an integer in [0, 1], got 8");

  // Cross-field rules name a path too.
  expect_rejected(R"({"nodes": [{"name": "b"}],
                      "traffic": {"process": "poisson", "rate_rps": 1000,
                                  "duration_us": 100}})",
                  "pdes.threads: must be >= 1 when traffic.process is set");
  expect_rejected(R"({"nodes": [{"name": "b"}], "pdes": {"threads": 1},
                      "topology": {"link": {"propagation_ns": 0}}})",
                  "topology.link.propagation_ns: must be > 0 when "
                  "pdes.threads >= 1");
}

TEST(ScenarioJsonTest, PeriodAxisRejectedWithDistribution) {
  // A distribution replaces the PERIOD gate, so each swept PERIOD would run
  // the same injector under a different label.
  const std::string what = rejection(R"({"nodes": [{"name": "b"}],
      "injector": {"distribution": "exponential", "mean_us": 2},
      "sweep": {"periods": [1, 64]}})");
  EXPECT_NE(what.find("sweep.periods: "), std::string::npos) << what;
  EXPECT_NE(what.find("injector.distribution"), std::string::npos) << what;
  // Either one alone parses.
  EXPECT_EQ(rejection(R"({"nodes": [{"name": "b"}],
      "injector": {"distribution": "exponential", "mean_us": 2}})"),
            "");
  EXPECT_EQ(rejection(R"({"nodes": [{"name": "b"}],
      "sweep": {"periods": [1, 64]}})"),
            "");
}

TEST(ScenarioJsonTest, DeepNestingRejectedWithoutOverflow) {
  // A recursive-descent parser without a depth cap overflows its stack here.
  const std::size_t depth = 200'000;
  const std::string doc = R"({"nodes": )" + std::string(depth, '[') +
                          std::string(depth, ']') + "}";
  expect_rejected(doc, "json: nesting deeper than 64 levels at line 1:");
  // Ordinary nesting stays well inside the cap.
  EXPECT_NO_THROW(Json::parse(std::string(60, '[') + std::string(60, ']')));
}

TEST(ScenarioJsonTest, CheckedInFilesRoundTripExactly) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(TFSIM_SOURCE_DIR) + "/scenarios")) {
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const std::string dumped = resolved_json(parse(text.str()));
    EXPECT_EQ(resolved_json(parse(dumped)), dumped) << entry.path();
    // Files named after a built-in are that built-in's dump, byte for byte.
    if (const auto spec = builtin(entry.path().stem().string())) {
      EXPECT_EQ(text.str(), resolved_json(*spec)) << entry.path();
    }
    ++files;
  }
  EXPECT_GE(files, 8u);
}

// --- schema: one field table per block -----------------------------------

/// The leaf at `path` ("nodes[0].nic.period"), or nullptr.
const Json* leaf_at(const Json& doc, const std::string& path) {
  const Json* v = &doc;
  std::size_t pos = 0;
  while (v != nullptr && pos < path.size()) {
    if (path[pos] == '.') ++pos;
    if (path[pos] == '[') {
      const std::size_t close = path.find(']', pos);
      const std::size_t i = std::stoul(path.substr(pos + 1, close - pos - 1));
      v = i < v->items().size() ? &v->items()[i] : nullptr;
      pos = close + 1;
    } else {
      const std::size_t end = path.find_first_of(".[", pos);
      v = v->find(path.substr(pos, end - pos));
      pos = end == std::string::npos ? path.size() : end;
    }
  }
  return v;
}

bool in_range(const Range& r, double x) {
  return (r.lo_open ? x > r.lo : x >= r.lo) &&
         (r.hi_open ? x < r.hi : x <= r.hi);
}

/// Non-default, in-range values to try for `f`, whose current value is
/// `cur` (several, because cross-field rules reject some of them).
std::vector<Json> candidates(const FieldInfo& f, const Json& cur) {
  std::vector<Json> out;
  switch (f.type) {
    case FieldInfo::Type::kBool:
      out.push_back(Json::boolean(!cur.as_bool()));
      break;
    case FieldInfo::Type::kString:
      for (const std::string& c : f.choices) {
        if (c != cur.as_string()) out.push_back(Json::string(c));
      }
      if (f.choices.empty()) out.push_back(Json::string(cur.as_string() + "x"));
      break;
    case FieldInfo::Type::kInteger:
    case FieldInfo::Type::kNumber: {
      const Range& r = f.range;
      const double x = cur.as_double();
      for (const double v : {x + 1, x + 0.5, (r.lo + r.hi) / 2, r.lo, x / 2}) {
        if (v != x && in_range(r, v) &&
            (f.type == FieldInfo::Type::kNumber || v == std::floor(v))) {
          out.push_back(Json::number(v));
        }
      }
      break;
    }
  }
  return out;
}

TEST(ScenarioSchemaTest, EveryFieldRoundTripsAtANonDefaultValue) {
  // One element in every array, so every table row has a leaf to set.
  // traffic.process stays unset: with it set, pdes.threads has no legal
  // value but 1.  The lender `l` (named by kill_lender) lets
  // topology.kind take a switched value.
  const Json base = to_json(parse(R"({
    "nodes": [{"name": "b", "role": "borrower"},
              {"name": "l", "role": "lender"}],
    "reservations": [{"borrower": "b"}],
    "workloads": [{"kind": "flow"}],
    "faults": {"flaps": [{"at_us": 10, "for_us": 5, "factor": 0.5}],
               "kill_lender": {"node": "l", "at_us": 100}},
    "chaos": {"events": [{"at_us": 1, "kind": "brownout_port",
                          "target": "leaf0:spine0"}]},
    "traffic": {"rate_rps": 1000, "duration_us": 100,
                "tenants": [{"name": "t"}]},
    "pdes": {"threads": 1},
    "sweep": {"periods": [1], "lenders": [1], "borrowers": [1],
              "instances": [1]}
  })"));
  const std::vector<FieldInfo> fields = schema();
  ASSERT_GT(fields.size(), 90u);
  for (const FieldInfo& f : fields) {
    std::string path = f.path;
    for (std::size_t at; (at = path.find("[]")) != std::string::npos;) {
      path.replace(at, 2, "[0]");
    }
    const Json* cur = leaf_at(base, path);
    ASSERT_NE(cur, nullptr) << path << " is not in the dump";
    // A delay distribution excludes a PERIOD axis, so it is set on a base
    // with an empty sweep.periods.
    const Json field_base =
        path == "injector.distribution"
            ? with_leaf(base, "", "sweep.periods", Json::array())
            : base;
    bool round_tripped = false;
    for (const Json& value : candidates(f, *cur)) {
      const std::string text = with_leaf(field_base, "", path, value).dump();
      if (!rejection(text).empty()) continue;  // a cross-field rule said no
      const std::string dumped = resolved_json(parse(text));
      EXPECT_EQ(resolved_json(parse(dumped)), dumped) << path;
      const Json doc = Json::parse(dumped);
      const Json* got = leaf_at(doc, path);
      ASSERT_NE(got, nullptr) << path;
      EXPECT_EQ(got->dump(-1), value.dump(-1)) << path;
      round_tripped = true;
      break;
    }
    EXPECT_TRUE(round_tripped) << path << ": no in-range value parsed";
  }
}

TEST(ScenarioSchemaTest, EveryKeyRejectsOutOfRangeValuesNamingItsPath) {
  const Json base = to_json(paper_two_node());
  for (const FieldInfo& f : schema()) {
    if (f.type != FieldInfo::Type::kInteger &&
        f.type != FieldInfo::Type::kNumber) {
      continue;
    }
    std::string path = f.path;
    for (std::size_t at; (at = path.find("[]")) != std::string::npos;) {
      path.replace(at, 2, "[0]");
    }
    if (leaf_at(base, path) == nullptr) continue;  // e.g. an empty array
    for (const double bad : {-1.0, 1e30}) {
      expect_rejected(with_leaf(base, "", path, Json::number(bad)).dump(),
                      path + ": must be ");
    }
  }
}

// --- chaos timeline + detector ------------------------------------------

TEST(ScenarioChaosTest, ChaosAndDetectorBlocksParse) {
  const ScenarioSpec spec = parse(R"({
    "name": "chaotic",
    "nodes": [
      {"name": "b", "role": "borrower", "count": 4},
      {"name": "l", "role": "lender", "count": 4}
    ],
    "topology": {"kind": "leaf_spine", "leaves": 2, "spines": 2},
    "chaos": {
      "seed": 11,
      "events": [
        {"at_us": 100, "kind": "gray_lender", "target": "l0", "factor": 6},
        {"at_us": 300, "kind": "recover", "target": "l0"},
        {"at_us": 400, "kind": "brownout_port", "target": "leaf0:spine1",
         "factor": 0.25, "for_us": 100},
        {"at_us": 600, "kind": "kill_switch", "target": "spine0"}
      ]
    },
    "detector": {"enabled": true, "alpha": 0.5, "latency_threshold": 2.5,
                 "timeout_weight": 8, "warmup": 8, "confirm": 2,
                 "probe_interval": 4, "rejoin_margin": 1.25,
                 "rejoin_confirm": 2}
  })");

  EXPECT_TRUE(spec.chaos.enabled());
  EXPECT_EQ(spec.chaos.seed, 11u);
  ASSERT_EQ(spec.chaos.events.size(), 4u);
  EXPECT_EQ(spec.chaos.events[0].kind, ChaosKind::kGrayLender);
  EXPECT_DOUBLE_EQ(spec.chaos.events[0].factor, 6.0);
  EXPECT_EQ(spec.chaos.events[3].kind, ChaosKind::kKillSwitch);
  EXPECT_EQ(spec.chaos.events[3].target, "spine0");

  EXPECT_TRUE(spec.detector.enabled);
  EXPECT_DOUBLE_EQ(spec.detector.alpha, 0.5);
  EXPECT_DOUBLE_EQ(spec.detector.latency_threshold, 2.5);
  EXPECT_EQ(spec.detector.warmup, 8u);
  EXPECT_DOUBLE_EQ(spec.detector.rejoin_margin, 1.25);
  EXPECT_EQ(spec.detector.rejoin_confirm, 2u);

  // The timeline resolves into windows: gray closed by its recover,
  // brownout closed by for_us, kill left open (runs to the horizon).
  const auto windows = resolve_chaos(spec.chaos);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].kind, ChaosKind::kGrayLender);
  EXPECT_EQ(windows[0].end, sim::from_us(300.0));
  EXPECT_EQ(windows[1].end, sim::from_us(500.0));
  EXPECT_EQ(windows[2].kind, ChaosKind::kKillSwitch);
  EXPECT_EQ(windows[2].end, sim::kTimeNever);

  const std::string dumped = resolved_json(spec);
  EXPECT_EQ(resolved_json(parse(dumped)), dumped);
}

TEST(ScenarioChaosTest, ChaosRackBuiltinRoundTripsExactly) {
  for (const char* name : {"chaos_rack", "serving_diurnal"}) {
    const ScenarioSpec spec = *builtin(name);
    const std::string dumped = resolved_json(spec);
    EXPECT_EQ(resolved_json(parse(dumped)), dumped) << name;
  }
}

TEST(ScenarioChaosTest, MalformedTimelineFailsAtParseNamingTheEvent) {
  const auto chaos_doc = [](const std::string& events) {
    return R"({"nodes": [{"name": "b"}], "chaos": {"events": [)" + events +
           "]}}";
  };
  const auto expect_message = [&](const std::string& events,
                                  const std::string& needle) {
    try {
      parse(chaos_doc(events));
      FAIL() << "expected rejection mentioning \"" << needle << "\"";
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  // Unmatched recover: nothing open on the target.
  expect_message(
      R"({"at_us": 10, "kind": "recover", "target": "spine0"})",
      "chaos event 0: recover for \"spine0\" matches no open chaos window");
  // Double-open on one target without a recover in between.
  expect_message(
      R"({"at_us": 10, "kind": "kill_switch", "target": "spine0"},
         {"at_us": 20, "kind": "kill_switch", "target": "spine0"})",
      "chaos event 1: target \"spine0\" already has an open chaos window");
  // A bounded window the next event overlaps.
  expect_message(
      R"({"at_us": 10, "kind": "kill_switch", "target": "spine0",
          "for_us": 100},
         {"at_us": 50, "kind": "kill_switch", "target": "spine0"})",
      "chaos event 1 overlaps the previous window on \"spine0\"");
  // Out-of-order timeline.
  expect_message(
      R"({"at_us": 50, "kind": "kill_switch", "target": "spine0"},
         {"at_us": 10, "kind": "kill_switch", "target": "spine1"})",
      "chaos events 0 and 1 out of order");
  // Factor validation per kind.
  expect_message(
      R"({"at_us": 10, "kind": "gray_lender", "target": "l0", "factor": 1})",
      "chaos event 0: gray_lender factor must be > 1");
  expect_message(
      R"({"at_us": 10, "kind": "brownout_port", "target": "leaf0:spine0",
          "factor": 1.5})",
      "chaos event 0: brownout_port factor must be in [0, 1)");
  expect_message(
      R"({"at_us": 10, "kind": "brownout_port", "target": "leaf0",
          "factor": 0.5})",
      "chaos event 0: brownout_port target must be \"switch:neighbor\"");
  expect_message(
      R"({"at_us": 10, "kind": "kill_switch", "target": "spine0",
          "factor": 0.5})",
      "chaos event 0: kill_switch takes no factor");

  // Unknown kinds and keys are scenario-level errors too.
  EXPECT_THROW(parse(chaos_doc(
                   R"({"at_us": 1, "kind": "meteor", "target": "spine0"})")),
               JsonError);
  EXPECT_THROW(parse(chaos_doc(
                   R"({"at": 1, "kind": "kill_switch", "target": "s"})")),
               JsonError);
}

TEST(ScenarioChaosTest, DetectorValidationRejectsBadKnobs) {
  const auto detector_doc = [](const std::string& body) {
    return R"({"nodes": [{"name": "b"}], "detector": {)" + body + "}}";
  };
  EXPECT_THROW(parse(detector_doc(R"("alpha": 0)")), JsonError);
  EXPECT_THROW(parse(detector_doc(R"("alpha": 1.5)")), JsonError);
  EXPECT_THROW(parse(detector_doc(R"("latency_threshold": 1)")), JsonError);
  EXPECT_THROW(parse(detector_doc(R"("rejoin_margin": 0.9)")), JsonError)
      << "a margin under 1x the healthy baseline can never be met";
  EXPECT_THROW(parse(detector_doc(R"("warmup": 0)")), JsonError);
  EXPECT_THROW(parse(detector_doc(R"("confirm": 0)")), JsonError);
  EXPECT_THROW(parse(detector_doc(R"("sensitivity": 2)")), JsonError)
      << "unknown detector key";
  // Defaults parse clean and round-trip.
  const ScenarioSpec spec = parse(detector_doc(R"("enabled": true)"));
  EXPECT_TRUE(spec.detector.enabled);
  EXPECT_DOUBLE_EQ(spec.detector.rejoin_margin, 1.5);
  const std::string dumped = resolved_json(spec);
  EXPECT_EQ(resolved_json(parse(dumped)), dumped);
}

}  // namespace
}  // namespace tfsim::scenario
