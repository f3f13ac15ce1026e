// Unit tests for fill-reducing orderings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "solver/ordering.hpp"

namespace sgl::solver {
namespace {

bool is_permutation_of_n(const std::vector<Index>& p, Index n) {
  if (to_index(p.size()) != n) return false;
  if (n == 0) return true;
  std::set<Index> s(p.begin(), p.end());
  return to_index(s.size()) == n && *s.begin() == 0 && *s.rbegin() == n - 1;
}

/// nnz of the strictly lower Cholesky factor of P A Pᵀ for the symmetric
/// pattern of `a` — the elimination-tree row-subtree count, computed here
/// independently of the solver.
Index factor_nnz(const la::CsrMatrix& a, const std::vector<Index>& perm) {
  const Index n = a.rows();
  const std::vector<Index> inv = invert_permutation(perm);
  std::vector<Index> parent(static_cast<std::size_t>(n), kInvalidIndex);
  std::vector<Index> flag(static_cast<std::size_t>(n), kInvalidIndex);
  Index nnz = 0;
  for (Index k = 0; k < n; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    const Index old = perm[static_cast<std::size_t>(k)];
    for (Index q = a.row_ptr()[static_cast<std::size_t>(old)];
         q < a.row_ptr()[static_cast<std::size_t>(old) + 1]; ++q) {
      Index i = inv[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(q)])];
      for (; i < k && flag[static_cast<std::size_t>(i)] != k;
           i = parent[static_cast<std::size_t>(i)]) {
        if (parent[static_cast<std::size_t>(i)] == kInvalidIndex)
          parent[static_cast<std::size_t>(i)] = k;
        ++nnz;
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }
  return nnz;
}

/// Random recursive tree: node i hangs off a uniform earlier node.
graph::Graph random_tree(Index n, std::uint64_t seed) {
  Rng rng(seed);
  graph::Graph g(n);
  for (Index i = 1; i < n; ++i)
    g.add_edge(i, static_cast<Index>(rng() % static_cast<std::uint64_t>(i)));
  return g;
}

TEST(Ordering, MethodNamesRoundTrip) {
  for (const OrderingMethod m :
       {OrderingMethod::kNatural, OrderingMethod::kRcm,
        OrderingMethod::kMinimumDegree, OrderingMethod::kNestedDissection,
        OrderingMethod::kAuto}) {
    const auto parsed = parse_ordering_method(ordering_method_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(parse_ordering_method("metis").has_value());
  EXPECT_FALSE(parse_ordering_method("").has_value());
  EXPECT_FALSE(parse_ordering_method("AMD").has_value());
}

TEST(Ordering, NaturalIsIdentity) {
  const auto p = natural_ordering(4);
  EXPECT_EQ(p, (std::vector<Index>{0, 1, 2, 3}));
}

TEST(Ordering, InvertPermutation) {
  const std::vector<Index> p{2, 0, 1};
  const auto inv = invert_permutation(p);
  EXPECT_EQ(inv, (std::vector<Index>{1, 2, 0}));
  EXPECT_THROW(invert_permutation({0, 0}), ContractViolation);
  EXPECT_THROW(invert_permutation({0, 5}), ContractViolation);
}

TEST(Ordering, PermuteSymmetricMatchesDirectIndexing) {
  const graph::Graph g = graph::make_grid2d(4, 4).graph;
  const la::CsrMatrix a = g.laplacian();
  const auto perm = rcm_ordering(a);
  const la::CsrMatrix pa = permute_symmetric(a, perm);
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j)
      EXPECT_DOUBLE_EQ(pa.at(i, j),
                       a.at(perm[static_cast<std::size_t>(i)],
                            perm[static_cast<std::size_t>(j)]));
}

TEST(Ordering, RcmReducesGridBandwidth) {
  const graph::Graph g = graph::make_grid2d(12, 12).graph;
  const la::CsrMatrix a = g.laplacian();
  const auto bandwidth = [&a](const std::vector<Index>& perm) {
    const auto inv = invert_permutation(perm);
    Index bw = 0;
    const la::CsrMatrix pa = permute_symmetric(a, perm);
    for (Index i = 0; i < pa.rows(); ++i)
      for (Index k = pa.row_ptr()[static_cast<std::size_t>(i)];
           k < pa.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
        bw = std::max(bw, std::abs(i - pa.col_idx()[static_cast<std::size_t>(k)]));
    (void)inv;
    return bw;
  };
  // Natural order of a y-major grid has bandwidth nx = 12; RCM should not
  // be worse, and is typically near the grid width too — compare against a
  // deliberately bad random ordering instead.
  std::vector<Index> bad = natural_ordering(a.rows());
  std::reverse(bad.begin(), bad.end());
  std::swap(bad[0], bad[70]);
  EXPECT_LE(bandwidth(rcm_ordering(a)), bandwidth(bad));
}

class OrderingMethodSweep
    : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(OrderingMethodSweep, ProducesValidPermutationOnMeshes) {
  const auto method = GetParam();
  for (const Index size : {2, 5, 9}) {
    const graph::Graph g = graph::make_grid2d(size, size).graph;
    const la::CsrMatrix a = g.laplacian();
    EXPECT_TRUE(is_permutation_of_n(compute_ordering(a, method), a.rows()))
        << "size " << size;
  }
}

TEST_P(OrderingMethodSweep, ProducesValidPermutationOnDisconnected) {
  graph::Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const la::CsrMatrix a = g.laplacian();
  EXPECT_TRUE(is_permutation_of_n(compute_ordering(a, GetParam()), a.rows()));
}

TEST_P(OrderingMethodSweep, ProducesValidPermutationOnDenseBlock) {
  const graph::Graph g = graph::make_complete(20);
  const la::CsrMatrix a = g.laplacian();
  EXPECT_TRUE(is_permutation_of_n(compute_ordering(a, GetParam()), 20));
}

INSTANTIATE_TEST_SUITE_P(Methods, OrderingMethodSweep,
                         ::testing::Values(OrderingMethod::kNatural,
                                           OrderingMethod::kRcm,
                                           OrderingMethod::kMinimumDegree,
                                           OrderingMethod::kNestedDissection,
                                           OrderingMethod::kAuto));

TEST(Ordering, NestedDissectionValidOnLargerMesh) {
  const graph::Graph g = graph::make_grid2d(40, 37).graph;
  const la::CsrMatrix a = g.laplacian();
  EXPECT_TRUE(is_permutation_of_n(nested_dissection_ordering(a), a.rows()));
}

TEST(Ordering, AmdValidOnEveryGeneratorFamily) {
  Rng rng(3);
  graph::TriMeshOptions holed;
  holed.nx = 24;
  holed.ny = 18;
  holed.holes = {{{12.0, 9.0, 4.0, 3.0}}};
  graph::Graph disconnected(40);  // two paths, a triangle, isolated nodes
  for (Index i = 0; i + 1 < 15; ++i) disconnected.add_edge(i, i + 1);
  for (Index i = 20; i + 1 < 30; ++i) disconnected.add_edge(i, i + 1);
  disconnected.add_edge(31, 32);
  disconnected.add_edge(32, 33);
  disconnected.add_edge(31, 33);

  const std::vector<std::pair<std::string, graph::Graph>> families = {
      {"path", graph::make_path(57)},
      {"cycle", graph::make_cycle(64)},
      {"star", graph::make_star(30)},
      {"star with dense hub", graph::make_star(600)},
      {"complete", graph::make_complete(45)},
      {"grid2d", graph::make_grid2d(17, 13).graph},
      {"torus", graph::make_grid2d(12, 12, true).graph},
      {"grid3d", graph::make_grid3d(7, 6, 5)},
      {"erdos-renyi", graph::make_erdos_renyi(300, 0.01, rng)},
      {"random geometric", graph::make_random_geometric(500, 0.07, rng).graph},
      {"triangulated with hole", graph::make_triangulated_mesh(holed).graph},
      {"airfoil", graph::make_airfoil_surrogate().graph},
      {"circuit grid", graph::make_circuit_grid(40, 30, 1500, 0.5, 2.0, 5).graph},
      {"random tree", random_tree(800, 9)},
      {"disconnected", std::move(disconnected)},
      {"edgeless", graph::Graph(6)},
      {"single node", graph::Graph(1)},
  };
  for (const auto& [name, g] : families) {
    const la::CsrMatrix a = g.laplacian();
    const auto perm = minimum_degree_ordering(a);
    ASSERT_TRUE(is_permutation_of_n(perm, a.rows())) << name;
    // Never worse than leaving the matrix in its natural order.
    EXPECT_LE(factor_nnz(a, perm), factor_nnz(a, natural_ordering(a.rows())))
        << name;
  }
  EXPECT_TRUE(minimum_degree_ordering(la::CsrMatrix{}).empty());
}

TEST(Ordering, AmdHasZeroFillOnPathsAndTrees) {
  std::vector<graph::Graph> trees = {graph::make_path(300),
                                     graph::make_star(40),
                                     graph::make_star(2000)};
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    trees.push_back(random_tree(1000 * static_cast<Index>(seed), seed));
  for (const graph::Graph& g : trees) {
    const la::CsrMatrix a = g.laplacian();
    EXPECT_EQ(factor_nnz(a, minimum_degree_ordering(a)), g.num_edges())
        << g.num_nodes() << " nodes";
  }
}

TEST(Ordering, AmdFillNoWorseThanNestedDissectionOnGrid) {
  const la::CsrMatrix a = graph::make_grid2d(64, 64).graph.laplacian();
  const Index amd = factor_nnz(a, minimum_degree_ordering(a));
  const Index nd = factor_nnz(a, nested_dissection_ordering(a));
  EXPECT_LE(amd, nd);
  // A real AMD lands far below natural (banded) order on a mesh.
  EXPECT_LT(2 * amd, factor_nnz(a, natural_ordering(a.rows())));
}

TEST(Ordering, AmdIsDeterministic) {
  Rng rng(11);
  for (const graph::Graph& g :
       {graph::make_grid2d(40, 40).graph,
        graph::make_random_geometric(1500, 0.05, rng).graph,
        graph::make_grid3d(9, 9, 9)}) {
    const la::CsrMatrix a = g.laplacian();
    const auto first = minimum_degree_ordering(a);
    for (int rep = 0; rep < 3; ++rep)
      EXPECT_EQ(minimum_degree_ordering(a), first);
  }
}

TEST(Ordering, AmdOrdersDenseRowsLast) {
  // Hub degree 999 is far above max(16, 10·√1000): set aside, ordered
  // last, and the leaves still eliminate with zero fill.
  const graph::Graph g = graph::make_star(1000);
  const auto perm = minimum_degree_ordering(g.laplacian());
  EXPECT_EQ(perm.back(), 0);
}

TEST(Ordering, MinimumDegreeStartsWithLowestDegreeNode) {
  const graph::Graph g = graph::make_star(6);
  const auto p = minimum_degree_ordering(g.laplacian());
  // Leaves (degree 1) are eliminated before the hub; once only one leaf
  // remains the hub's degree drops to 1 as well, so the hub can appear in
  // either of the final two positions.
  EXPECT_NE(p[0], 0);
  EXPECT_TRUE(p.back() == 0 || p[p.size() - 2] == 0);
}

}  // namespace
}  // namespace sgl::solver
