#include "workloads/graph500/graph500.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <queue>

#include "node/cluster.hpp"

namespace tfsim::workloads::g500 {
namespace {

KroneckerParams tiny_params(std::uint32_t scale = 10) {
  KroneckerParams p;
  p.scale = scale;
  p.edgefactor = 16;
  p.seed = 12345;
  return p;
}

TEST(KroneckerTest, EdgeCountAndRange) {
  const auto el = kronecker_generate(tiny_params());
  EXPECT_EQ(el.num_vertices, 1024u);
  EXPECT_EQ(el.edges.size(), 1024u * 16u);
  for (const auto& e : el.edges) {
    EXPECT_LT(e.u, el.num_vertices);
    EXPECT_LT(e.v, el.num_vertices);
    EXPECT_GE(e.w, 0.0f);
    EXPECT_LT(e.w, 1.0f);
  }
}

TEST(KroneckerTest, DeterministicForSeed) {
  const auto a = kronecker_generate(tiny_params());
  const auto b = kronecker_generate(tiny_params());
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].u, b.edges[i].u);
    EXPECT_EQ(a.edges[i].v, b.edges[i].v);
  }
  auto p2 = tiny_params();
  p2.seed = 999;
  const auto c = kronecker_generate(p2);
  int diff = 0;
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    diff += (a.edges[i].u != c.edges[i].u) ? 1 : 0;
  }
  EXPECT_GT(diff, 1000) << "different seed, different graph";
}

TEST(KroneckerTest, SkewedDegreeDistribution) {
  const auto el = kronecker_generate(tiny_params(12));
  const auto g = build_csr(el);
  std::uint64_t max_deg = 0;
  for (std::uint64_t v = 0; v < g.num_vertices; ++v) {
    max_deg = std::max(max_deg, g.degree(v));
  }
  const double avg = static_cast<double>(g.num_edges_directed()) /
                     static_cast<double>(g.num_vertices);
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * avg)
      << "R-MAT graphs are heavy-tailed";
}

TEST(CsrTest, StructureIsConsistent) {
  const auto el = kronecker_generate(tiny_params());
  const auto g = build_csr(el);
  EXPECT_EQ(g.num_vertices, el.num_vertices);
  EXPECT_EQ(g.xadj.size(), g.num_vertices + 1);
  EXPECT_EQ(g.xadj.front(), 0u);
  EXPECT_EQ(g.xadj.back(), g.adj.size());
  EXPECT_EQ(g.weights.size(), g.adj.size());
  // Symmetrized minus self-loops: every directed edge has its reverse.
  std::uint64_t self_loops = 0;
  for (const auto& e : el.edges) self_loops += (e.u == e.v) ? 1 : 0;
  EXPECT_EQ(g.adj.size(), 2 * (el.edges.size() - self_loops));
  // Sorted adjacency per vertex.
  for (std::uint64_t v = 0; v < g.num_vertices; ++v) {
    for (std::uint64_t e = g.xadj[v] + 1; e < g.xadj[v + 1]; ++e) {
      EXPECT_LE(g.adj[e - 1], g.adj[e]);
    }
  }
}

TEST(CsrTest, SymmetryProperty) {
  const auto el = kronecker_generate(tiny_params());
  const auto g = build_csr(el);
  for (std::uint64_t v = 0; v < g.num_vertices; v += 37) {
    for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      EXPECT_TRUE(g.has_edge(g.adj[e], static_cast<std::uint32_t>(v)))
          << "missing reverse edge";
    }
  }
}

TEST(CsrTest, HasEdgeAndMinWeight) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {{0, 1, 0.5f}, {0, 1, 0.2f}, {1, 2, 0.9f}, {3, 3, 0.1f}};
  const auto g = build_csr(el);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(3, 3)) << "self loop dropped";
  EXPECT_FLOAT_EQ(g.min_edge_weight(0, 1), 0.2f) << "multi-edge min";
  EXPECT_TRUE(std::isinf(g.min_edge_weight(0, 3)));
}

// --- BFS/SSSP over simulated memory ---------------------------------------

struct GraphFixture {
  node::Cluster tb{scenario::paper_two_node()};
  Graph500Config cfg;
  GraphFixture() {
    tb.attach_remote();
    cfg.gen = tiny_params(12);
    cfg.placement = node::Placement::kRemote;
  }
};

TEST(BfsTest, ProducesValidTree) {
  GraphFixture f;
  Graph500 g(f.tb.borrower(), f.cfg);
  const auto res = g.run_bfs(1);
  EXPECT_GT(res.vertices_visited, g.graph().num_vertices / 2)
      << "giant component reached";
  EXPECT_GT(res.edges_traversed, 0u);
  EXPECT_GT(res.teps, 0.0);
  EXPECT_EQ(validate_bfs(g.graph(), 1, res.parent), "");
}

TEST(BfsTest, AgainstReferenceLevels) {
  // Cross-check simulated BFS levels against an independent host BFS.
  GraphFixture f;
  Graph500 g(f.tb.borrower(), f.cfg);
  const auto res = g.run_bfs(7);
  const auto& gr = g.graph();
  std::vector<int> level(gr.num_vertices, -1);
  std::queue<std::uint32_t> q;
  level[7] = 0;
  q.push(7);
  while (!q.empty()) {
    const auto u = q.front();
    q.pop();
    for (std::uint64_t e = gr.xadj[u]; e < gr.xadj[u + 1]; ++e) {
      const auto v = gr.adj[e];
      if (level[v] < 0) {
        level[v] = level[u] + 1;
        q.push(v);
      }
    }
  }
  for (std::uint32_t v = 0; v < gr.num_vertices; ++v) {
    EXPECT_EQ(res.parent[v] >= 0, level[v] >= 0) << "reachability mismatch at "
                                                 << v;
  }
}

TEST(BfsTest, ValidatorRejectsCorruptedTree) {
  GraphFixture f;
  Graph500 g(f.tb.borrower(), f.cfg);
  auto res = g.run_bfs(1);
  ASSERT_EQ(validate_bfs(g.graph(), 1, res.parent), "");
  // Corrupt: point some visited vertex at a non-neighbour.
  for (std::uint32_t v = 0; v < g.graph().num_vertices; ++v) {
    if (res.parent[v] >= 0 && v != 1 &&
        !g.graph().has_edge(static_cast<std::uint32_t>((v + 517) %
                                                       g.graph().num_vertices),
                            v)) {
      res.parent[v] =
          static_cast<std::int64_t>((v + 517) % g.graph().num_vertices);
      break;
    }
  }
  EXPECT_NE(validate_bfs(g.graph(), 1, res.parent), "");
}

TEST(SsspTest, ProducesValidDistances) {
  GraphFixture f;
  Graph500 g(f.tb.borrower(), f.cfg);
  const auto res = g.run_sssp(1);
  EXPECT_EQ(res.dist[1], 0.0f);
  EXPECT_EQ(validate_sssp(g.graph(), 1, res.dist, res.parent), "");
  EXPECT_GT(res.vertices_visited, 0u);
}

TEST(SsspTest, DistancesAreShorterThanHops) {
  // Weighted shortest paths are <= unweighted hop count (weights < 1).
  GraphFixture f;
  Graph500 g(f.tb.borrower(), f.cfg);
  const auto bfs = g.run_bfs(3);
  const auto sssp = g.run_sssp(3);
  std::vector<int> level(g.graph().num_vertices, -1);
  // Recover hop counts from the BFS parent chain.
  for (std::uint32_t v = 0; v < g.graph().num_vertices; ++v) {
    if (bfs.parent[v] < 0) continue;
    int hops = 0;
    std::uint32_t cur = v;
    while (cur != 3 && hops <= static_cast<int>(g.graph().num_vertices)) {
      cur = static_cast<std::uint32_t>(bfs.parent[cur]);
      ++hops;
    }
    level[v] = hops;
  }
  for (std::uint32_t v = 0; v < g.graph().num_vertices; v += 11) {
    if (level[v] >= 0 && sssp.dist[v] < 1e30f) {
      EXPECT_LE(sssp.dist[v], static_cast<float>(level[v]) + 1e-3f);
    }
  }
}

TEST(SsspTest, ValidatorRejectsWrongDistance) {
  GraphFixture f;
  Graph500 g(f.tb.borrower(), f.cfg);
  auto res = g.run_sssp(1);
  // Inflate one reachable non-root distance: leaves a relaxable edge.
  for (std::uint32_t v = 0; v < g.graph().num_vertices; ++v) {
    if (v != 1 && res.dist[v] < 1e30f && res.dist[v] > 0.0f) {
      res.dist[v] += 10.0f;
      break;
    }
  }
  EXPECT_NE(validate_sssp(g.graph(), 1, res.dist, res.parent), "");
}

TEST(JobTest, ConstructionPlusKernel) {
  GraphFixture f;
  Graph500 g(f.tb.borrower(), f.cfg);
  ASSERT_TRUE(g.has_edge_list());
  const auto job = g.run_bfs_job(1);
  EXPECT_GT(job.construction_elapsed, 0u);
  EXPECT_GT(job.kernel_elapsed, 0u);
  EXPECT_EQ(job.total(), job.construction_elapsed + job.kernel_elapsed);
  EXPECT_EQ(job.validation_error, "");
}

TEST(JobTest, CsrOnlyGraphCannotReplayConstruction) {
  GraphFixture f;
  auto csr = build_csr(kronecker_generate(tiny_params()));
  Graph500 g(f.tb.borrower(), f.cfg, std::move(csr));
  EXPECT_FALSE(g.has_edge_list());
  EXPECT_THROW(g.run_construction(), std::logic_error);
}

TEST(JobTest, DelayInjectionSlowsJobDown) {
  GraphFixture fast;
  Graph500 g1(fast.tb.borrower(), fast.cfg);
  const auto base = g1.run_bfs_job(1);

  node::Cluster tb2(scenario::paper_two_node());
  tb2.set_period(200);
  tb2.attach_remote();
  Graph500 g2(tb2.borrower(), fast.cfg);
  const auto slow = g2.run_bfs_job(1);
  EXPECT_GT(slow.total(), 3 * base.total());
  EXPECT_EQ(slow.validation_error, "") << "still correct, just slow";
}

}  // namespace
}  // namespace tfsim::workloads::g500
