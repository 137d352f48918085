#include "workloads/replay/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "node/cluster.hpp"

namespace tfsim::workloads::replay {
namespace {

TEST(TraceParseTest, ParsesAllOpKinds) {
  const auto trace = parse_trace_string(
      "# comment\n"
      "R 80\n"
      "W 100\n"
      "D 0\n"
      "C 250\n");
  ASSERT_EQ(trace.ops.size(), 4u);
  EXPECT_EQ(trace.ops[0], (TraceOp{OpKind::kRead, 0x80}));
  EXPECT_EQ(trace.ops[1], (TraceOp{OpKind::kWrite, 0x100}));
  EXPECT_EQ(trace.ops[2], (TraceOp{OpKind::kDependentRead, 0}));
  EXPECT_EQ(trace.ops[3], (TraceOp{OpKind::kCompute, 250}));
}

TEST(TraceParseTest, RoundTripsThroughSerialization) {
  const auto original = parse_trace_string("R 80\nW ff80\nD 0\nC 42\n");
  std::ostringstream out;
  write_trace(out, original);
  const auto reparsed = parse_trace_string(out.str());
  EXPECT_EQ(original.ops, reparsed.ops);
}

TEST(TraceParseTest, RejectsMalformedLines) {
  EXPECT_THROW(parse_trace_string("X 80\n"), std::runtime_error);
  EXPECT_THROW(parse_trace_string("R\n"), std::runtime_error);
  EXPECT_THROW(parse_trace_string("R zz\n"), std::runtime_error);
  EXPECT_THROW(parse_trace_string("R 80 extra\n"), std::runtime_error);
}

TEST(TraceTest, FootprintAndAccessCounts) {
  const auto trace = parse_trace_string("R 0\nW 1000\nC 5\n");
  EXPECT_EQ(trace.accesses(), 2u);
  EXPECT_EQ(trace.footprint_bytes(), 0x1000u + mem::kCacheLineBytes);
  EXPECT_EQ(Trace{}.footprint_bytes(), 0u);
}

TEST(ReplayTest, RunsAgainstTestbed) {
  node::Cluster tb(scenario::paper_two_node());
  ASSERT_TRUE(tb.attach_remote());
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "R " + std::to_string(i * 2) + "00\n";  // hex offsets, spread out
    text += "C 10\n";
  }
  const auto trace = parse_trace_string(text);
  const auto res = replay(tb.borrower(), trace, node::Placement::kRemote);
  EXPECT_EQ(res.accesses, 200u);
  EXPECT_GT(res.remote_misses, 150u);
  EXPECT_GT(res.elapsed, sim::from_us(1.0));
}

TEST(ReplayTest, DelaySensitivityMatchesAccessPattern) {
  // A dependent-chase trace must suffer more from injection than an
  // independent-read trace of identical addresses.
  std::string dep_text, indep_text;
  for (int i = 0; i < 100; ++i) {
    dep_text += "D " + std::to_string(i) + "000\n";
    indep_text += "R " + std::to_string(i) + "000\n";
  }
  auto run = [](const std::string& text, std::uint64_t period) {
    node::Cluster tb(scenario::paper_two_node());
    tb.set_period(period);
    tb.attach_remote();
    return replay(tb.borrower(), parse_trace_string(text),
                  node::Placement::kRemote)
        .elapsed;
  };
  const double dep_deg = static_cast<double>(run(dep_text, 1000)) /
                         static_cast<double>(run(dep_text, 1));
  const double indep_deg = static_cast<double>(run(indep_text, 1000)) /
                           static_cast<double>(run(indep_text, 1));
  EXPECT_GT(dep_deg, 1.5);
  EXPECT_GT(indep_deg, 1.5);
}

TEST(RecorderTest, CapturedTraceReplaysEquivalently) {
  // Record a synthetic workload, then replay the capture: both must see the
  // same number of accesses, and similar timing on a fresh testbed.
  node::Cluster tb1(scenario::paper_two_node());
  ASSERT_TRUE(tb1.attach_remote());
  const mem::Addr base = tb1.remote_base();
  node::MemContext ctx(tb1.borrower(), node::CpuConfig{8, 100}, "rec");
  TraceRecorder rec(ctx, base);
  for (int i = 0; i < 300; ++i) {
    rec.access(base + static_cast<mem::Addr>(i) * 256, i % 3 == 0,
               i % 7 == 0);
    if (i % 10 == 0) rec.advance(sim::from_ns(50));
  }
  ctx.drain();
  const sim::Time original = ctx.now();

  node::Cluster tb2(scenario::paper_two_node());
  ASSERT_TRUE(tb2.attach_remote());
  const auto res = replay(tb2.borrower(), rec.trace(), node::Placement::kRemote,
                          node::CpuConfig{8, 100});
  EXPECT_EQ(res.accesses, 300u);
  const double ratio = static_cast<double>(res.elapsed) /
                       static_cast<double>(original);
  EXPECT_NEAR(ratio, 1.0, 0.05) << "replay reproduces the recorded timing";
}

}  // namespace
}  // namespace tfsim::workloads::replay
