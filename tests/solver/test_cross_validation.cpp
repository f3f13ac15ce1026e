// Cross-validation tests: independent solver paths must agree with each
// other and with closed forms on structured inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "eig/dense_eig.hpp"
#include "graph/generators.hpp"
#include "solver/laplacian_solver.hpp"
#include "solver_test_utils.hpp"

namespace sgl::solver {
namespace {

/// Dense L⁺ y via full eigendecomposition — the reference all sparse
/// paths are checked against.
la::Vector dense_pinv_apply(const graph::Graph& g, const la::Vector& y) {
  const Index n = g.num_nodes();
  const la::CsrMatrix lap = g.laplacian();
  la::DenseMatrix dense(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) dense(i, j) = lap.at(i, j);
  const eig::DenseEigResult eigs = eig::dense_symmetric_eig(dense);
  la::Vector out(static_cast<std::size_t>(n), 0.0);
  for (Index i = 0; i < n; ++i) {
    if (eigs.eigenvalues[static_cast<std::size_t>(i)] < 1e-9) continue;
    const la::Vector u = eigs.eigenvectors.col_vector(i);
    la::axpy(la::dot(u, y) / eigs.eigenvalues[static_cast<std::size_t>(i)], u,
             out);
  }
  return out;
}

class PinvCrossValidation
    : public ::testing::TestWithParam<std::tuple<int, LaplacianMethod>> {};

TEST_P(PinvCrossValidation, SparseMatchesDenseReference) {
  const auto [graph_kind, method] = GetParam();
  graph::Graph g(0);
  switch (graph_kind) {
    case 0: g = graph::make_grid2d(6, 7).graph; break;
    case 1: g = graph::make_cycle(30); break;
    case 2: g = graph::make_star(25); break;
    case 3: g = graph::make_circuit_grid(6, 6, 0, 0.5, 5.0, 3).graph; break;
    case 4: g = ultra_sparse_graph(7, 7, 5, 13); break;
    default: g = barbell_graph(8, 6); break;
  }
  LaplacianSolverOptions options;
  options.method = method;
  const LaplacianPinvSolver pinv(g, options);

  Rng rng(11);
  la::Vector y(static_cast<std::size_t>(g.num_nodes()));
  for (auto& v : y) v = rng.normal();
  la::center(y);

  const la::Vector sparse = pinv.apply(y);
  const la::Vector dense = dense_pinv_apply(g, y);
  for (std::size_t i = 0; i < sparse.size(); ++i)
    EXPECT_NEAR(sparse[i], dense[i], 1e-7) << "graph " << graph_kind;
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndMethods, PinvCrossValidation,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(LaplacianMethod::kCholesky,
                                         LaplacianMethod::kPcgAmg,
                                         LaplacianMethod::kAuto)),
    [](const auto& info) {
      return method_test_name(std::get<1>(info.param)) + "_graph" +
             std::to_string(std::get<0>(info.param));
    });

// The fill-reducing ordering only permutes the factor: every ordering the
// Cholesky path accepts must give the same L⁺ action on an SGL-shaped
// near-tree.
class CholeskyOrderingCrossValidation
    : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(CholeskyOrderingCrossValidation, MatchesDenseReferenceOnNearTree) {
  const graph::Graph g = ultra_sparse_graph(8, 8, 9, 17);
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kCholesky;
  options.ordering = GetParam();
  const LaplacianPinvSolver pinv(g, options);

  Rng rng(12);
  la::Vector y(static_cast<std::size_t>(g.num_nodes()));
  for (auto& v : y) v = rng.normal();
  la::center(y);

  const la::Vector sparse = pinv.apply(y);
  const la::Vector dense = dense_pinv_apply(g, y);
  for (std::size_t i = 0; i < sparse.size(); ++i)
    EXPECT_NEAR(sparse[i], dense[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Orderings, CholeskyOrderingCrossValidation,
                         ::testing::Values(OrderingMethod::kNatural,
                                           OrderingMethod::kRcm,
                                           OrderingMethod::kMinimumDegree,
                                           OrderingMethod::kNestedDissection,
                                           OrderingMethod::kAuto),
                         [](const auto& info) {
                           return std::string(ordering_method_name(info.param));
                         });

TEST(PinvCrossValidation, CompleteGraphClosedForm) {
  // K_n: Reff(s, t) = 2/n for every pair.
  const Index n = 14;
  const graph::Graph g = graph::make_complete(n);
  const LaplacianPinvSolver pinv(g);
  EXPECT_NEAR(pinv.effective_resistance(0, 1), 2.0 / n, 1e-10);
  EXPECT_NEAR(pinv.effective_resistance(3, 9), 2.0 / n, 1e-10);
}

TEST(PinvCrossValidation, SeriesParallelNetworkClosedForm) {
  // Two parallel paths 0-1-2-3 (three unit resistors) and 0-4-3 (two
  // unit resistors): Reff(0,3) = (3·2)/(3+2) = 6/5 Ω.
  graph::Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 4);
  g.add_edge(4, 3);
  const LaplacianPinvSolver pinv(g);
  EXPECT_NEAR(pinv.effective_resistance(0, 3), 6.0 / 5.0, 1e-10);
}

TEST(PinvCrossValidation, FosterTheorem) {
  // Foster: Σ_{(s,t)∈E} w_st·Reff(s,t) = n − 1 for any connected graph.
  const graph::MeshGraph mesh = graph::make_circuit_grid(7, 7, 0, 0.5, 5.0, 5);
  const LaplacianPinvSolver pinv(mesh.graph);
  Real total = 0.0;
  for (const graph::Edge& e : mesh.graph.edges())
    total += e.weight * pinv.effective_resistance(e.s, e.t);
  EXPECT_NEAR(total, static_cast<Real>(mesh.graph.num_nodes() - 1), 1e-7);
}

}  // namespace
}  // namespace sgl::solver
