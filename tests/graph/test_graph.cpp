// Unit tests for the core Graph type and its derived matrices.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "graph/coarsening.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace sgl::graph {
namespace {

Graph triangle() {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  return g;
}

TEST(Graph, ConstructionAndCounts) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.density(), 1.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 6.0);
}

TEST(Graph, AddEdgeCanonicalizesEndpoints) {
  Graph g(4);
  g.add_edge(3, 1, 2.0);
  EXPECT_EQ(g.edge(0).s, 1);
  EXPECT_EQ(g.edge(0).t, 3);
}

TEST(Graph, AddEdgeContracts) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), ContractViolation);   // self loop
  EXPECT_THROW(g.add_edge(0, 3, 1.0), ContractViolation);   // out of range
  EXPECT_THROW(g.add_edge(0, 1, 0.0), ContractViolation);   // zero weight
  EXPECT_THROW(g.add_edge(0, 1, -1.0), ContractViolation);  // negative
}

TEST(Graph, WeightedDegrees) {
  const Graph g = triangle();
  const la::Vector d = g.weighted_degrees();
  EXPECT_DOUBLE_EQ(d[0], 4.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(Graph, LaplacianRowSumsAreZero) {
  const Graph g = triangle();
  const la::CsrMatrix lap = g.laplacian();
  const la::Vector ones(3, 1.0);
  const la::Vector row_sums = lap.multiply(ones);
  for (const Real v : row_sums) EXPECT_NEAR(v, 0.0, 1e-14);
}

TEST(Graph, LaplacianIsSymmetricAndMatchesStamp) {
  const Graph g = triangle();
  const la::CsrMatrix lap = g.laplacian();
  EXPECT_TRUE(lap.is_symmetric());
  EXPECT_DOUBLE_EQ(lap.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(lap.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(lap.at(0, 2), -3.0);
  EXPECT_DOUBLE_EQ(lap.at(1, 2), -2.0);
}

TEST(Graph, LaplacianQuadraticFormMatchesEq1) {
  // xᵀLx = Σ w_st (x_s − x_t)² (paper eq. 1).
  const Graph g = triangle();
  const la::Vector x{1.0, 2.0, 4.0};
  const Real expected = 1.0 * 1.0 + 2.0 * 4.0 + 3.0 * 9.0;
  EXPECT_NEAR(g.laplacian().quadratic_form(x), expected, 1e-12);
}

TEST(Graph, LaplacianIsPositiveSemidefinite) {
  const Graph g = triangle();
  const la::CsrMatrix lap = g.laplacian();
  // Any vector gives a nonnegative quadratic form.
  const std::vector<la::Vector> probes{{1.0, -1.0, 0.5}, {-3.0, 2.0, 2.0}};
  for (const la::Vector& x : probes) {
    EXPECT_GE(lap.quadratic_form(x), -1e-12);
  }
}

TEST(Graph, ParallelEdgesSumInLaplacian) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 2.5);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.laplacian().at(0, 1), -3.5);
}

TEST(Graph, IsolatedNodesKeepDiagonalSlot) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const la::CsrMatrix lap = g.laplacian();
  EXPECT_EQ(lap.rows(), 3);
  EXPECT_DOUBLE_EQ(lap.at(2, 2), 0.0);
  // Structural slot exists even though the value is zero.
  EXPECT_EQ(lap.row_ptr()[3] - lap.row_ptr()[2], 1);
}

// The historical Laplacian assembly: per edge (s,s,w), (t,t,w), (s,t,−w),
// (t,s,−w), then a structural-zero diagonal per node, through
// from_triplets. Graph::laplacian() fills CSR rows directly and must give
// the same matrix bit for bit, including how each diagonal sum rounds.
la::CsrMatrix laplacian_from_triplets(const Graph& g) {
  std::vector<la::Triplet> triplets;
  for (const Edge& e : g.edges()) {
    triplets.push_back({e.s, e.s, e.weight});
    triplets.push_back({e.t, e.t, e.weight});
    triplets.push_back({e.s, e.t, -e.weight});
    triplets.push_back({e.t, e.s, -e.weight});
  }
  for (Index i = 0; i < g.num_nodes(); ++i) triplets.push_back({i, i, 0.0});
  return la::CsrMatrix::from_triplets(g.num_nodes(), g.num_nodes(), triplets);
}

void expect_laplacian_matches_triplets(const Graph& g) {
  const la::CsrMatrix got = g.laplacian();
  const la::CsrMatrix want = laplacian_from_triplets(g);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  ASSERT_EQ(got.row_ptr(), want.row_ptr());
  ASSERT_EQ(got.col_idx(), want.col_idx());
  ASSERT_EQ(got.values().size(), want.values().size());
  if (got.values().empty()) return;  // memcmp must not see null pointers
  EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                        got.values().size() * sizeof(Real)),
            0);
}

// Same edges, seeded non-integer weights: with unit weights every sum is
// exact and the summation order would not show.
Graph reweighted(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  Graph out(g.num_nodes());
  for (const Edge& e : g.edges())
    out.add_edge(e.s, e.t, rng.uniform(0.01, 100.0));
  return out;
}

TEST(Graph, LaplacianMatchesTripletAssemblyOnHubs) {
  // A run holds 2·deg + 1 entries, so from degree 8 from_triplets' sort is
  // the unstable introsort; the star hub and every complete-graph row
  // take that path.
  expect_laplacian_matches_triplets(reweighted(make_star(2001), 1));
  expect_laplacian_matches_triplets(reweighted(make_complete(60), 2));
  for (const Index n : {8, 9, 10, 17}) {
    SCOPED_TRACE(n);
    expect_laplacian_matches_triplets(reweighted(make_star(n), 3));
  }
}

TEST(Graph, LaplacianMatchesTripletAssemblyOnMeshHierarchy) {
  // Coarse levels of a mesh sum fine edges into heavy parallel stamps and
  // raise the degree level by level.
  const Graph mesh = reweighted(make_grid2d(64, 64).graph, 4);
  expect_laplacian_matches_triplets(mesh);
  const CoarseningHierarchy h = build_coarsening_hierarchy(mesh, 20);
  ASSERT_GT(h.num_levels(), 2);
  for (const HierarchyLevel& level : h.levels) {
    SCOPED_TRACE(level.graph.num_nodes());
    expect_laplacian_matches_triplets(level.graph);
  }
}

TEST(Graph, LaplacianMatchesTripletAssemblyWithIsolatedNodes) {
  Graph g(12);
  Rng rng(5);
  // Parallel edges onto one hub (degree ≥ 8) and two isolated nodes (10, 11).
  for (Index k = 0; k < 14; ++k)
    g.add_edge(0, 1 + k % 9, rng.uniform(0.1, 10.0));
  g.add_edge(3, 4, 0.7);
  expect_laplacian_matches_triplets(g);
  expect_laplacian_matches_triplets(Graph(5));
  expect_laplacian_matches_triplets(Graph(0));
}

TEST(Graph, AdjacencyMatrix) {
  const Graph g = triangle();
  const la::CsrMatrix w = g.adjacency();
  EXPECT_DOUBLE_EQ(w.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(w.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(w.at(0, 0), 0.0);
  EXPECT_TRUE(w.is_symmetric());
}

TEST(Graph, AdjacencyListRoundTrip) {
  const Graph g = triangle();
  const AdjacencyList adj = g.adjacency_list();
  EXPECT_EQ(adj.num_nodes(), 3);
  EXPECT_EQ(adj.degree(0), 2);
  EXPECT_EQ(adj.degree(1), 2);
  EXPECT_EQ(adj.degree(2), 2);
  // Edge ids attached to the right endpoints.
  for (Index u = 0; u < 3; ++u) {
    for (Index k = adj.row_ptr[static_cast<std::size_t>(u)];
         k < adj.row_ptr[static_cast<std::size_t>(u) + 1]; ++k) {
      const Edge& e = g.edge(adj.edge_id[static_cast<std::size_t>(k)]);
      const Index v = adj.neighbor[static_cast<std::size_t>(k)];
      EXPECT_TRUE((e.s == u && e.t == v) || (e.s == v && e.t == u));
      EXPECT_DOUBLE_EQ(adj.weight[static_cast<std::size_t>(k)], e.weight);
    }
  }
}

TEST(Graph, ScaleWeights) {
  Graph g = triangle();
  g.scale_weights(2.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 12.0);
  EXPECT_THROW(g.scale_weights(0.0), ContractViolation);
}

TEST(Graph, SetWeight) {
  Graph g = triangle();
  g.set_weight(1, 10.0);
  EXPECT_DOUBLE_EQ(g.edge(1).weight, 10.0);
  EXPECT_THROW(g.set_weight(5, 1.0), ContractViolation);
  EXPECT_THROW(g.set_weight(0, -1.0), ContractViolation);
}

}  // namespace
}  // namespace sgl::graph
