// Unit tests for the aggregation AMG hierarchy and preconditioner.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "solver/amg.hpp"
#include "solver/pcg.hpp"
#include "solver_test_utils.hpp"

namespace sgl::solver {
namespace {

TEST(Amg, BuildsMultipleLevelsOnLargeGrid) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(40, 40).graph);
  const AmgHierarchy h(a);
  EXPECT_GE(h.num_levels(), 3);
  EXPECT_EQ(h.size(), a.rows());
}

TEST(Amg, SmallMatrixIsSingleLevel) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_path(10));
  AmgOptions options;
  options.coarse_size = 64;
  const AmgHierarchy h(a, options);
  EXPECT_EQ(h.num_levels(), 1);
}

TEST(Amg, OperatorComplexityIsModest) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(50, 50).graph);
  const AmgHierarchy h(a);
  EXPECT_LT(h.operator_complexity(), 2.5);
  EXPECT_GE(h.operator_complexity(), 1.0);
}

TEST(Amg, VCycleReducesResidual) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(30, 30).graph);
  const AmgHierarchy h(a);
  Rng rng(4);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();

  la::Vector x;
  h.v_cycle(b, x);
  la::Vector residual = b;
  const la::Vector ax = a.multiply(x);
  la::axpy(-1.0, ax, residual);
  EXPECT_LT(la::norm2(residual), 0.7 * la::norm2(b));
}

TEST(Amg, SolvesExactlyAtCoarseScale) {
  // When the whole problem fits the coarse solver, one cycle is a direct
  // solve.
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(5, 5).graph);
  AmgOptions options;
  options.coarse_size = 64;
  const AmgHierarchy h(a, options);
  Rng rng(5);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  la::Vector x;
  h.v_cycle(b, x);
  const la::Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

class AmgGridSweep : public ::testing::TestWithParam<Index> {};

TEST_P(AmgGridSweep, PcgWithAmgConvergesFastOnGrids) {
  const Index size = GetParam();
  const la::CsrMatrix a =
      grounded_laplacian(graph::make_grid2d(size, size).graph);
  Rng rng(6);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();

  const AmgPreconditioner amg(a);
  la::Vector x;
  PcgOptions options;
  options.rel_tolerance = 1e-10;
  const PcgResult r = pcg_solve(a, b, x, amg, options);
  EXPECT_TRUE(r.converged);
  // Mesh-independent-ish convergence: far fewer iterations than the
  // unpreconditioned O(size) growth.
  EXPECT_LE(r.iterations, 60);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, AmgGridSweep,
                         ::testing::Values(Index{10}, Index{20}, Index{40},
                                           Index{60}));

TEST(Amg, PreconditionerIsSymmetric) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(12, 12).graph);
  const AmgPreconditioner amg(a);
  Rng rng(7);
  la::Vector r(static_cast<std::size_t>(a.rows()));
  la::Vector s(static_cast<std::size_t>(a.rows()));
  for (auto& v : r) v = rng.normal();
  for (auto& v : s) v = rng.normal();
  la::Vector mr, ms;
  amg.apply(r, mr);
  amg.apply(s, ms);
  EXPECT_NEAR(la::dot(s, mr), la::dot(r, ms), 1e-8 * la::norm2(r) * la::norm2(s));
}

// CG needs a fixed SPD preconditioner: the V-cycle must be linear and
// positive definite, not just symmetric.
TEST(Amg, PreconditionerIsLinear) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(14, 11).graph);
  const AmgPreconditioner amg(a);
  Rng rng(11);
  la::Vector r(static_cast<std::size_t>(a.rows()));
  la::Vector s(static_cast<std::size_t>(a.rows()));
  for (auto& v : r) v = rng.normal();
  for (auto& v : s) v = rng.normal();
  la::Vector combo = r;
  la::scale(combo, 2.5);
  la::axpy(-0.75, s, combo);
  la::Vector mr, ms, mcombo;
  amg.apply(r, mr);
  amg.apply(s, ms);
  amg.apply(combo, mcombo);
  la::scale(mr, 2.5);
  la::axpy(-0.75, ms, mr);
  for (std::size_t i = 0; i < mr.size(); ++i)
    EXPECT_NEAR(mcombo[i], mr[i], 1e-10 * (1.0 + std::abs(mr[i])));
}

TEST(Amg, PreconditionerIsPositiveDefinite) {
  const la::CsrMatrix a = grounded_laplacian(ultra_sparse_graph(20, 20, 16, 3));
  const AmgPreconditioner amg(a);
  Rng rng(12);
  for (int trial = 0; trial < 8; ++trial) {
    la::Vector r(static_cast<std::size_t>(a.rows()));
    for (auto& v : r) v = rng.normal();
    la::Vector mr;
    amg.apply(r, mr);
    EXPECT_GT(la::dot(r, mr), 0.0) << "trial " << trial;
  }
}

TEST(Amg, ApplyBlockMatchesApplyBitwise) {
  // The real block V-cycle override must equal b scalar V-cycles exactly,
  // for every thread count.
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(17, 13).graph);
  const AmgPreconditioner amg(a);
  const la::MultiVector r = random_block_rhs(a.rows(), 5, 35);
  la::MultiVector z(a.rows(), 5);
  for (const Index threads : {1, 2, 4, 8}) {
    amg.apply_block(r.view(), z.view(), threads);
    for (Index j = 0; j < r.cols(); ++j) {
      la::Vector rj(r.col(j).begin(), r.col(j).end());
      la::Vector ref;
      amg.apply(rj, ref);
      for (Index i = 0; i < a.rows(); ++i)
        EXPECT_EQ(z(i, j), ref[static_cast<std::size_t>(i)])
            << "threads=" << threads << " col=" << j;
    }
  }
}

TEST(Amg, ApplyBlockMatchesApplyBitwiseAboveScatterThreshold) {
  // A fine level past la::detail::kSpmvSerialRows rows exercises the
  // chunked restriction combine; the block path must reproduce it.
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(72, 70).graph);
  ASSERT_GE(a.rows(), la::detail::kSpmvSerialRows);
  const AmgPreconditioner amg(a);
  const la::MultiVector r = random_block_rhs(a.rows(), 3, 36);
  la::MultiVector z(a.rows(), 3);
  for (const Index threads : {1, 4}) {
    amg.apply_block(r.view(), z.view(), threads);
    for (Index j = 0; j < r.cols(); ++j) {
      la::Vector rj(r.col(j).begin(), r.col(j).end());
      la::Vector ref;
      amg.apply(rj, ref);
      for (Index i = 0; i < a.rows(); ++i)
        EXPECT_EQ(z(i, j), ref[static_cast<std::size_t>(i)])
            << "threads=" << threads << " col=" << j;
    }
  }
}

TEST(Amg, NonSquareThrows) {
  const la::CsrMatrix rect = la::CsrMatrix::from_triplets(3, 4, {{0, 0, 1.0}});
  EXPECT_THROW(AmgHierarchy{rect}, ContractViolation);
  EXPECT_THROW(AmgPreconditioner{rect}, ContractViolation);
}

TEST(Amg, AcceleratesPcgOnMesh) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(30, 30).graph);
  Rng rng(9);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  const AmgPreconditioner amg(a);
  const IdentityPreconditioner ident(a.rows());
  la::Vector x_amg;
  la::Vector x_cg;
  const PcgResult with_amg = pcg_solve(a, b, x_amg, amg);
  const PcgResult plain = pcg_solve(a, b, x_cg, ident);
  ASSERT_TRUE(with_amg.converged);
  ASSERT_TRUE(plain.converged);
  EXPECT_LT(3 * with_amg.iterations, plain.iterations);
}

// AMG is the one iterative fallback, so it must converge on every graph
// family the facade can be handed, not only on uniform meshes.
class AmgGraphFamilySweep : public ::testing::TestWithParam<const char*> {};

graph::Graph amg_family_graph(const std::string& name) {
  if (name == "path") return graph::make_path(300);
  if (name == "star") return graph::make_star(200);
  if (name == "complete") return graph::make_complete(40);
  if (name == "torus") return graph::make_grid2d(20, 20, true).graph;
  if (name == "barbell") return barbell_graph(20, 40);
  if (name == "ultrasparse") return ultra_sparse_graph(25, 25, 30, 23);
  if (name == "circuit")
    return graph::make_circuit_grid(20, 20, 0, 0.01, 10.0, 9).graph;
  if (name == "geometric") {
    Rng rng(31);
    return graph::make_random_geometric(500, 0.12, rng).graph;
  }
  return graph::make_grid3d(8, 8, 8);  // grid3d
}

TEST_P(AmgGraphFamilySweep, PcgResidualBelowTolerance) {
  const graph::Graph g = amg_family_graph(GetParam());
  ASSERT_TRUE(graph::is_connected(g)) << GetParam();
  const la::CsrMatrix a = grounded_laplacian(g);
  Rng rng(10);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  const AmgPreconditioner amg(a);
  la::Vector x;
  const PcgResult r = pcg_solve(a, b, x, amg);
  EXPECT_TRUE(r.converged) << GetParam();
  const la::Vector ax = a.multiply(x);
  la::Vector res = b;
  la::axpy(-1.0, ax, res);
  EXPECT_LE(la::norm2(res) / la::norm2(b), 1e-9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Families, AmgGraphFamilySweep,
                         ::testing::Values("path", "star", "complete", "torus",
                                           "barbell", "ultrasparse", "circuit",
                                           "geometric", "grid3d"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(Amg, WorksOnWeightedCircuitGrid) {
  const graph::MeshGraph mesh = graph::make_circuit_grid(25, 25, 0, 0.5, 5.0, 3);
  const la::CsrMatrix a = grounded_laplacian(mesh.graph);
  Rng rng(8);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  const AmgPreconditioner amg(a);
  la::Vector x;
  const PcgResult r = pcg_solve(a, b, x, amg);
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace sgl::solver
