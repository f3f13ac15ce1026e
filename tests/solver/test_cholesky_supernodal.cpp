// Bitwise cross-kernel tests for the supernodal dense-panel numeric
// phase (DESIGN.md §9): the default kSupernodal kernel must reproduce
// the retained kScalar reference bit for bit — factor, scalar solves,
// and block sweeps — across every ordering, matrix family, and thread
// count. The comparisons go through solve outputs: every factor nonzero
// is multiplied into the forward/backward sweeps of a dense random
// right-hand side, so a single differing bit in L or D would surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "solver/cholesky.hpp"
#include "solver_test_utils.hpp"

namespace sgl::solver {
namespace {

la::CsrMatrix random_spd(Index n, Real density, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> t;
  la::Vector diag(static_cast<std::size_t>(n), 0.5);
  for (Index i = 0; i < n; ++i)
    for (Index j = i + 1; j < n; ++j)
      if (rng.uniform() < density) {
        const Real v = rng.uniform(0.1, 1.0);
        t.push_back({i, j, -v});
        t.push_back({j, i, -v});
        diag[static_cast<std::size_t>(i)] += v;
        diag[static_cast<std::size_t>(j)] += v;
      }
  for (Index i = 0; i < n; ++i)
    t.push_back({i, i, diag[static_cast<std::size_t>(i)]});
  return la::CsrMatrix::from_triplets(n, n, t);
}

enum class MatrixFamily { kMesh, kPath, kRandomSpd };

la::CsrMatrix make_matrix(MatrixFamily family) {
  switch (family) {
    case MatrixFamily::kMesh:
      // Big enough that the mesh factor's trailing blocks form wide
      // panels and, under the fill-reducing orderings, some levels carry
      // enough work to run on the pool (FactorStats::pool_levels > 0).
      return grounded_laplacian(graph::make_grid2d(48, 40).graph);
    case MatrixFamily::kPath: {
      // A path graph factors tridiagonally: one long chain supernode
      // whose panels are all width 1 — the case that makes the
      // fundamental-panel refinement (not whole-chain densification)
      // load-bearing.
      graph::Graph g(340);
      for (Index i = 0; i + 1 < 340; ++i) g.add_edge(i, i + 1, 1.0);
      return grounded_laplacian(g);
    }
    case MatrixFamily::kRandomSpd:
    default:
      return random_spd(300, 0.04, 99);
  }
}

la::Vector random_rhs(Index n, std::uint64_t seed) {
  Rng rng(seed);
  la::Vector b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  return b;
}

using SweepParam = std::tuple<OrderingMethod, MatrixFamily, Index>;

class SupernodalKernelSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SupernodalKernelSweep, FactorAndSweepsMatchScalarBitwise) {
  const auto [ordering, family, threads] = GetParam();
  const la::CsrMatrix a = make_matrix(family);

  const CholeskySolver reference(a, ordering, 1, FactorKernel::kScalar);
  const CholeskySolver scalar(a, ordering, threads, FactorKernel::kScalar);
  const CholeskySolver panel(a, ordering, threads, FactorKernel::kSupernodal);

  // The panel partition covers every column exactly once.
  EXPECT_GE(panel.stats().num_panels, 1);
  EXPECT_LE(panel.stats().num_panels, panel.stats().n);
  EXPECT_LE(panel.stats().panel_columns, panel.stats().n);
  EXPECT_EQ(panel.stats().factor_nnz, reference.stats().factor_nnz);

  // Scalar solve: exercises every factor entry once per sweep.
  const la::Vector b = random_rhs(a.rows(), 2024);
  const la::Vector x_ref = reference.solve(b);
  const la::Vector x_scalar = scalar.solve(b);
  const la::Vector x_panel = panel.solve(b);
  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    EXPECT_EQ(x_ref[i], x_scalar[i]) << "scalar kernel, thread count " << threads;
    EXPECT_EQ(x_ref[i], x_panel[i]) << "panel kernel, thread count " << threads;
  }

  // Block sweeps (panel-run gathers under kSupernodal) against the
  // scalar reference, column by column, at the sweep's thread count.
  const la::MultiVector rhs = random_block_rhs(a.rows(), 9, 77);
  const la::MultiVector x_block = panel.solve_block(rhs, threads);
  const la::MultiVector x_block_ref = reference.solve_block(rhs, 1);
  for (Index j = 0; j < rhs.cols(); ++j) {
    const auto col = x_block.col(j);
    const auto ref = x_block_ref.col(j);
    for (Index i = 0; i < a.rows(); ++i) EXPECT_EQ(col[i], ref[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, SupernodalKernelSweep,
    ::testing::Combine(::testing::Values(OrderingMethod::kNatural,
                                         OrderingMethod::kRcm,
                                         OrderingMethod::kMinimumDegree,
                                         OrderingMethod::kNestedDissection,
                                         OrderingMethod::kAuto),
                       ::testing::Values(MatrixFamily::kMesh,
                                         MatrixFamily::kPath,
                                         MatrixFamily::kRandomSpd),
                       ::testing::Values(Index{1}, Index{2}, Index{4},
                                         Index{8})));

TEST(CholeskySupernodal, MeshFormsWidePanels) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(24, 24).graph);
  const CholeskySolver solver(a, OrderingMethod::kNestedDissection);
  // The trailing separator blocks of a nested-dissection mesh factor are
  // dense triangles — the panel refinement must find width ≥ 2 there,
  // otherwise the dense kernel never runs.
  EXPECT_GE(solver.stats().panel_max_width, 2);
  EXPECT_GE(solver.stats().panel_columns, 2);
  EXPECT_LE(solver.stats().num_panels, solver.stats().n);
}

TEST(CholeskySupernodal, PathGraphPanelsAreAllWidthOne) {
  graph::Graph g(200);
  for (Index i = 0; i + 1 < 200; ++i) g.add_edge(i, i + 1, 1.0);
  const la::CsrMatrix a = grounded_laplacian(g);
  const CholeskySolver solver(a, OrderingMethod::kNatural);
  // Tridiagonal factor: |pattern(j)| = 1 for every column but the last,
  // so the only merge the refinement may find is the final pair (sizes
  // 1 and 0). It must NOT densify the single chain supernode — that
  // would be one O(n²) panel.
  EXPECT_LE(solver.stats().panel_max_width, 2);
  EXPECT_LE(solver.stats().panel_columns, 2);
  EXPECT_GE(solver.stats().num_panels, solver.stats().n - 1);
}

TEST(CholeskySupernodal, RefactorizeMatchesScalarKernelBitwise) {
  const graph::Graph g = graph::make_grid2d(15, 14).graph;
  const la::CsrMatrix a = grounded_laplacian(g);
  const CholeskySolver original(a, OrderingMethod::kAuto, 1,
                                FactorKernel::kScalar);

  // Same pattern, new weights: numeric-only factorization on the shared
  // analysis, once per kernel.
  la::CsrMatrix a2 = a;
  a2.scale(2.0);
  const CholeskySolver scalar(a2, original.symbolic(), 4,
                              FactorKernel::kScalar);
  const CholeskySolver panel(a2, original.symbolic(), 4,
                             FactorKernel::kSupernodal);
  EXPECT_EQ(scalar.factor_values(), panel.factor_values());
  EXPECT_EQ(scalar.diagonal(), panel.diagonal());
  const la::Vector b = random_rhs(a.rows(), 17);
  const la::Vector xs = scalar.solve(b);
  const la::Vector xp = panel.solve(b);
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(xs[i], xp[i]);
}

TEST(CholeskySupernodal, RefactorizeMatchesFreshBitwise) {
  // Weight-only changes keep the pattern, so a numeric phase on the
  // shared symbolic analysis must reproduce a fresh factorization of the
  // new matrix BITWISE (same ordering decision, same level schedule).
  const graph::Graph g = graph::make_grid2d(9, 11).graph;
  const la::CsrMatrix a = grounded_laplacian(g);
  graph::Graph scaled_g = g;
  scaled_g.scale_weights(3.25);
  const la::CsrMatrix scaled = grounded_laplacian(scaled_g);

  for (const OrderingMethod ordering :
       {OrderingMethod::kRcm, OrderingMethod::kMinimumDegree,
        OrderingMethod::kNestedDissection}) {
    const CholeskySolver original(a, ordering);
    const CholeskySolver solver(scaled, original.symbolic());
    EXPECT_EQ(solver.symbolic(), original.symbolic());

    const CholeskySolver fresh(scaled, ordering);
    EXPECT_EQ(solver.factor_values(), fresh.factor_values());
    EXPECT_EQ(solver.diagonal(), fresh.diagonal());
    const la::Vector b = random_rhs(a.rows(), 17);
    const la::Vector x_re = solver.solve(b);
    const la::Vector x_fresh = fresh.solve(b);
    for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(x_re[i], x_fresh[i]);
  }
}

TEST(CholeskySupernodal, RefactorizeRejectsPatternGrowth) {
  const graph::Graph path = graph::make_path(32);
  const CholeskySolver solver(grounded_laplacian(path),
                              OrderingMethod::kNatural);
  // Grounded entry (0, 30) is far outside the bidiagonal pattern.
  graph::Graph grown = path;
  grown.add_edge(1, 31, 1.0);
  EXPECT_FALSE(solver.symbolic()->matches(grounded_laplacian(grown)));
  EXPECT_THROW(CholeskySolver(grounded_laplacian(grown), solver.symbolic()),
               ContractViolation);

  // Same node and edge count, other endpoints: a pattern the analysis
  // does not cover either, so it is refused rather than reused.
  graph::Graph rewired(32);
  for (Index i = 0; i + 2 < 32; ++i) rewired.add_edge(i, i + 1, 1.0);
  rewired.add_edge(0, 31, 1.0);
  ASSERT_EQ(rewired.num_edges(), path.num_edges());
  EXPECT_FALSE(solver.symbolic()->matches(grounded_laplacian(rewired)));
  EXPECT_THROW(CholeskySolver(grounded_laplacian(rewired), solver.symbolic()),
               ContractViolation);
}

/// `a` with every off-diagonal pair (i, j) scaled by its own factor in
/// [0.5, 2) — the same factor for (j, i) — and each diagonal moved by the
/// change of its row's off-diagonal magnitudes. The pattern is unchanged
/// and diagonal dominance (hence positive definiteness) is kept, but unlike
/// a uniform scale the new values are not a multiple of the old ones.
la::CsrMatrix reweighted(const la::CsrMatrix& a) {
  la::CsrMatrix out = a;
  std::vector<Real>& vals = out.values();
  for (Index i = 0; i < a.rows(); ++i) {
    Index diag_pos = kInvalidIndex;
    Real diag_shift = 0.0;
    for (Index p = a.row_ptr()[static_cast<std::size_t>(i)];
         p < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++p) {
      const Index j = a.col_idx()[static_cast<std::size_t>(p)];
      Real& v = vals[static_cast<std::size_t>(p)];
      if (j == i) {
        diag_pos = p;
        continue;
      }
      const auto lo = static_cast<std::uint64_t>(std::min(i, j));
      const auto hi = static_cast<std::uint64_t>(std::max(i, j));
      const Real f = 0.5 + static_cast<Real>((lo * 7919 + hi * 104729) % 97) /
                               64.0;
      diag_shift += std::abs(v) * (f - 1.0);
      v *= f;
    }
    vals[static_cast<std::size_t>(diag_pos)] += diag_shift;
  }
  return out;
}

class CholeskyRefactorizeSweep
    : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(CholeskyRefactorizeSweep, RefactorizeMatchesFreshFactorization) {
  // The ordering is chosen from the pattern alone, so a numeric
  // renumeration on the kept analysis must equal a fresh factorization of
  // the new values bit for bit, whatever the thread count of either.
  for (const MatrixFamily family :
       {MatrixFamily::kMesh, MatrixFamily::kPath, MatrixFamily::kRandomSpd}) {
    SCOPED_TRACE(static_cast<int>(family));
    const la::CsrMatrix a = make_matrix(family);
    const la::CsrMatrix a2 = reweighted(a);
    ASSERT_NE(a2.values(), a.values());

    const CholeskySolver original(a, GetParam());
    const CholeskySolver solver(a2, original.symbolic(), 4);
    const CholeskySolver fresh(a2, GetParam(), 1);
    EXPECT_EQ(solver.stats().factor_nnz, fresh.stats().factor_nnz);
    EXPECT_EQ(solver.factor_values(), fresh.factor_values());
    EXPECT_EQ(solver.diagonal(), fresh.diagonal());

    const la::Vector b = random_rhs(a.rows(), 31);
    const la::Vector x_re = solver.solve(b);
    const la::Vector x_fresh = fresh.solve(b);
    for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(x_re[i], x_fresh[i]);

    // The renumerated factor solves the NEW system, not the old one.
    const la::Vector ax = a2.multiply(x_re);
    for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
  }
}

TEST_P(CholeskyRefactorizeSweep, RefactorizeRoundTripRestoresFactorBitwise) {
  // Factoring new values and then the original ones again on the shared
  // analysis must carry no numeric state of the intermediate factor
  // (fill entries included): scalar and block solves equal those of the
  // original factor bit for bit.
  for (const MatrixFamily family :
       {MatrixFamily::kMesh, MatrixFamily::kPath, MatrixFamily::kRandomSpd}) {
    SCOPED_TRACE(static_cast<int>(family));
    const la::CsrMatrix a = make_matrix(family);
    const CholeskySolver original(a, GetParam());
    const la::Vector b = random_rhs(a.rows(), 43);
    const la::MultiVector rhs = random_block_rhs(a.rows(), 3, 44);
    const la::Vector x_before = original.solve(b);
    const la::MultiVector xb_before = original.solve_block(rhs, 1);

    const CholeskySolver other(reweighted(a), original.symbolic());
    const CholeskySolver solver(a, other.symbolic());

    const la::Vector x_after = solver.solve(b);
    for (std::size_t i = 0; i < b.size(); ++i)
      EXPECT_EQ(x_after[i], x_before[i]);
    const la::MultiVector xb_after = solver.solve_block(rhs, 1);
    for (Index j = 0; j < rhs.cols(); ++j) {
      const auto col = xb_after.col(j);
      const auto ref = xb_before.col(j);
      for (Index i = 0; i < a.rows(); ++i) EXPECT_EQ(col[i], ref[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orderings, CholeskyRefactorizeSweep,
                         ::testing::Values(OrderingMethod::kNatural,
                                           OrderingMethod::kRcm,
                                           OrderingMethod::kMinimumDegree,
                                           OrderingMethod::kNestedDissection,
                                           OrderingMethod::kAuto),
                         [](const auto& info) {
                           return std::string(ordering_method_name(info.param));
                         });

TEST(CholeskySupernodal, NonPositivePivotThrowsSameColumnAsScalar) {
  // Indefinite dense-ish matrix: both kernels must reject at the SAME
  // column with the same message (the pivot checks run in the same
  // column order inside a panel as outside).
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(
      3, 3,
      {{0, 0, 4.0}, {0, 1, 2.0}, {0, 2, 2.0}, {1, 0, 2.0}, {1, 1, 1.0},
       {1, 2, 2.0}, {2, 0, 2.0}, {2, 1, 2.0}, {2, 2, 1.0}});
  std::string scalar_message;
  std::string panel_message;
  try {
    const CholeskySolver s(a, OrderingMethod::kNatural, 1,
                           FactorKernel::kScalar);
  } catch (const NumericalError& e) {
    scalar_message = e.what();
  }
  try {
    const CholeskySolver s(a, OrderingMethod::kNatural, 1,
                           FactorKernel::kSupernodal);
  } catch (const NumericalError& e) {
    panel_message = e.what();
  }
  ASSERT_FALSE(scalar_message.empty());
  EXPECT_EQ(scalar_message, panel_message);
}

}  // namespace
}  // namespace sgl::solver
