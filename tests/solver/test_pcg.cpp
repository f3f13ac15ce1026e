// Unit tests for preconditioned conjugate gradient (scalar and block) and
// the Preconditioner base class.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "solver/amg.hpp"
#include "solver/pcg.hpp"
#include "solver_test_utils.hpp"

namespace sgl::solver {
namespace {

la::CsrMatrix grounded_grid_laplacian(Index nx, Index ny) {
  const graph::Graph g = graph::make_grid2d(nx, ny).graph;
  std::vector<la::Triplet> t;
  for (const graph::Edge& e : g.edges()) {
    if (e.s != 0) t.push_back({e.s - 1, e.s - 1, e.weight});
    if (e.t != 0) t.push_back({e.t - 1, e.t - 1, e.weight});
    if (e.s != 0 && e.t != 0) {
      t.push_back({e.s - 1, e.t - 1, -e.weight});
      t.push_back({e.t - 1, e.s - 1, -e.weight});
    }
  }
  return la::CsrMatrix::from_triplets(g.num_nodes() - 1, g.num_nodes() - 1, t);
}

TEST(Pcg, SolvesIdentityInOneIteration) {
  const la::CsrMatrix a = la::CsrMatrix::identity(10);
  la::Vector b(10, 1.0);
  la::Vector x;
  const IdentityPreconditioner m(10);
  const PcgResult r = pcg_solve(a, b, x, m);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 2);
  for (const Real v : x) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Pcg, ZeroRhsGivesZeroSolution) {
  const la::CsrMatrix a = la::CsrMatrix::identity(5);
  la::Vector x{1.0, 2.0, 3.0, 4.0, 5.0};  // stale initial guess
  const IdentityPreconditioner m(5);
  const PcgResult r = pcg_solve(a, la::Vector(5, 0.0), x, m);
  EXPECT_TRUE(r.converged);
  for (const Real v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

class PcgPreconditionerSweep : public ::testing::TestWithParam<int> {};

TEST_P(PcgPreconditionerSweep, GridLaplacianResidualBelowTolerance) {
  const la::CsrMatrix a = grounded_grid_laplacian(13, 14);
  Rng rng(5);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();

  std::unique_ptr<Preconditioner> m;
  switch (GetParam()) {
    case 0: m = std::make_unique<IdentityPreconditioner>(a.rows()); break;
    default: m = std::make_unique<AmgPreconditioner>(a); break;
  }
  la::Vector x;
  PcgOptions options;
  options.rel_tolerance = 1e-10;
  const PcgResult r = pcg_solve(a, b, x, *m, options);
  EXPECT_TRUE(r.converged);
  const la::Vector ax = a.multiply(x);
  la::Vector res = b;
  la::axpy(-1.0, ax, res);
  EXPECT_LE(la::norm2(res) / la::norm2(b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Preconditioners, PcgPreconditionerSweep,
                         ::testing::Values(0, 1), [](const auto& info) {
                           return std::string(info.param == 0 ? "identity"
                                                              : "amg");
                         });

TEST(Pcg, RespectsIterationCap) {
  const la::CsrMatrix a = grounded_grid_laplacian(25, 25);
  Rng rng(7);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  la::Vector x;
  const IdentityPreconditioner m(a.rows());
  PcgOptions options;
  options.max_iterations = 3;
  const PcgResult r = pcg_solve(a, b, x, m, options);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 3);
}

TEST(Pcg, WarmStartFromExactSolutionConvergesImmediately) {
  const la::CsrMatrix a = grounded_grid_laplacian(8, 8);
  Rng rng(8);
  la::Vector x_true(static_cast<std::size_t>(a.rows()));
  for (auto& v : x_true) v = rng.normal();
  const la::Vector b = a.multiply(x_true);
  la::Vector x = x_true;
  const AmgPreconditioner m(a);
  const PcgResult r = pcg_solve(a, b, x, m);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 1);
}

TEST(Pcg, SizeMismatchThrows) {
  const la::CsrMatrix a = la::CsrMatrix::identity(4);
  const IdentityPreconditioner m(4);
  la::Vector x;
  EXPECT_THROW(pcg_solve(a, la::Vector(3, 1.0), x, m), ContractViolation);
}

// --- pcg_solve_block ------------------------------------------------------

la::MultiVector random_rhs_block(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  la::MultiVector b(rows, cols);
  for (Index j = 0; j < cols; ++j)
    for (Real& v : b.col(j)) v = rng.normal();
  return b;
}

/// Block solve must reproduce b independent scalar solves BITWISE — the
/// iterates, the per-column iteration counts, the residuals, and the
/// convergence flags — for every thread count and block width.
void expect_block_matches_scalar(const la::CsrMatrix& a,
                                 const Preconditioner& m,
                                 const la::MultiVector& b,
                                 const PcgOptions& options) {
  for (const Index threads : {1, 2, 4, 8}) {
    PcgOptions opts = options;
    opts.num_threads = threads;
    la::MultiVector x(a.rows(), b.cols());
    const PcgBlockResult block = pcg_solve_block(a, b.view(), x.view(), m, opts);
    ASSERT_EQ(to_index(block.columns.size()), b.cols());
    for (Index j = 0; j < b.cols(); ++j) {
      la::Vector bj(b.col(j).begin(), b.col(j).end());
      la::Vector xj;
      PcgOptions scalar_opts = options;
      scalar_opts.num_threads = 1;
      const PcgResult ref = pcg_solve(a, bj, xj, m, scalar_opts);
      const PcgResult& col = block.columns[static_cast<std::size_t>(j)];
      EXPECT_EQ(col.iterations, ref.iterations)
          << "threads=" << threads << " col=" << j;
      EXPECT_EQ(col.converged, ref.converged)
          << "threads=" << threads << " col=" << j;
      EXPECT_EQ(col.relative_residual, ref.relative_residual)
          << "threads=" << threads << " col=" << j;
      for (Index i = 0; i < a.rows(); ++i)
        EXPECT_EQ(x(i, j), xj[static_cast<std::size_t>(i)])
            << "threads=" << threads << " col=" << j << " row=" << i;
    }
  }
}

TEST(PcgBlock, MatchesScalarBitwiseAcrossPreconditionersAndWidths) {
  const la::CsrMatrix a = grounded_grid_laplacian(12, 13);
  std::vector<std::unique_ptr<Preconditioner>> preconditioners;
  preconditioners.push_back(std::make_unique<IdentityPreconditioner>(a.rows()));
  preconditioners.push_back(std::make_unique<AmgPreconditioner>(a));
  PcgOptions options;
  options.rel_tolerance = 1e-10;
  std::uint64_t seed = 40;
  for (const auto& m : preconditioners) {
    for (const Index b : {1, 3, 8}) {
      expect_block_matches_scalar(a, *m, random_rhs_block(a.rows(), b, seed++),
                                  options);
    }
  }
}

TEST(PcgBlock, MatchesScalarBitwiseWithAmgOnNearTree) {
  // The SGL iterate shape: AMG aggregates a near-tree very differently
  // from a mesh, and the block path must still reproduce scalar PCG.
  const la::CsrMatrix a = grounded_laplacian(ultra_sparse_graph(16, 16, 12, 5));
  const AmgPreconditioner m(a);
  PcgOptions options;
  options.rel_tolerance = 1e-10;
  expect_block_matches_scalar(a, m, random_rhs_block(a.rows(), 6, 45), options);
}

TEST(PcgBlock, DeflationFreezesColumnsIndependently) {
  // Columns of very different difficulty: a zero column converges at
  // iteration 0 and must be frozen while the others keep iterating — and
  // every column must still match its solo scalar solve exactly.
  const la::CsrMatrix a = grounded_grid_laplacian(15, 15);
  la::MultiVector b = random_rhs_block(a.rows(), 4, 51);
  std::fill(b.col(1).begin(), b.col(1).end(), 0.0);
  const AmgPreconditioner m(a);
  PcgOptions options;
  options.rel_tolerance = 1e-8;
  expect_block_matches_scalar(a, m, b, options);

  la::MultiVector x(a.rows(), 4);
  const PcgBlockResult res = pcg_solve_block(a, b.view(), x.view(), m, options);
  EXPECT_TRUE(res.all_converged());
  EXPECT_EQ(res.columns[1].iterations, 0);
  EXPECT_TRUE(res.columns[1].converged);
  Index max_it = 0;
  Index total = 0;
  for (const PcgResult& c : res.columns) {
    max_it = std::max(max_it, c.iterations);
    total += c.iterations;
  }
  EXPECT_GT(max_it, 0);
  EXPECT_EQ(res.max_iterations(), max_it);
  EXPECT_EQ(res.total_iterations(), total);
  EXPECT_EQ(res.first_unconverged(), kInvalidIndex);
}

TEST(PcgBlock, WarmStartBreakdownMirrorsScalar) {
  // Column 0 starts at the exact solution (zero search direction →
  // breakdown path, 0 iterations, converged); column 1 starts cold.
  const la::CsrMatrix a = grounded_grid_laplacian(8, 8);
  Rng rng(52);
  la::Vector x_true(static_cast<std::size_t>(a.rows()));
  for (auto& v : x_true) v = rng.normal();
  la::MultiVector b(a.rows(), 2);
  const la::Vector b0 = a.multiply(x_true);
  std::copy(b0.begin(), b0.end(), b.col(0).begin());
  for (Real& v : b.col(1)) v = rng.normal();

  la::MultiVector x(a.rows(), 2);
  std::copy(x_true.begin(), x_true.end(), x.col(0).begin());
  const AmgPreconditioner m(a);
  const PcgBlockResult res = pcg_solve_block(a, b.view(), x.view(), m, {});
  EXPECT_TRUE(res.columns[0].converged);
  EXPECT_EQ(res.columns[0].iterations, 0);
  EXPECT_TRUE(res.columns[1].converged);
  EXPECT_GT(res.columns[1].iterations, 0);

  // Scalar references with the same initial guesses.
  la::Vector x0 = x_true;
  const PcgResult r0 = pcg_solve(a, b0, x0, m);
  for (Index i = 0; i < a.rows(); ++i)
    EXPECT_EQ(x(i, 0), x0[static_cast<std::size_t>(i)]);
  EXPECT_EQ(res.columns[0].relative_residual, r0.relative_residual);
}

TEST(PcgBlock, IterationCapMirrorsScalar) {
  const la::CsrMatrix a = grounded_grid_laplacian(20, 20);
  const la::MultiVector b = random_rhs_block(a.rows(), 3, 53);
  const IdentityPreconditioner m(a.rows());
  PcgOptions options;
  options.max_iterations = 3;
  expect_block_matches_scalar(a, m, b, options);

  la::MultiVector x(a.rows(), 3);
  const PcgBlockResult res = pcg_solve_block(a, b.view(), x.view(), m, options);
  EXPECT_FALSE(res.all_converged());
  EXPECT_EQ(res.first_unconverged(), 0);
  for (const PcgResult& c : res.columns) EXPECT_EQ(c.iterations, 3);
}

TEST(PcgBlock, EmptyBlockAndShapeContracts) {
  const la::CsrMatrix a = la::CsrMatrix::identity(5);
  const IdentityPreconditioner m(5);
  la::MultiVector b(5, 0);
  la::MultiVector x(5, 0);
  const PcgBlockResult res = pcg_solve_block(a, b.view(), x.view(), m);
  EXPECT_TRUE(res.columns.empty());
  EXPECT_EQ(res.max_iterations(), 0);
  EXPECT_TRUE(res.all_converged());

  la::MultiVector bad(4, 2);
  la::MultiVector out(5, 2);
  EXPECT_THROW(pcg_solve_block(a, bad.view(), out.view(), m),
               ContractViolation);
  la::MultiVector mismatch(5, 3);
  EXPECT_THROW(pcg_solve_block(a, mismatch.view(), out.view(), m),
               ContractViolation);
}

// --- Preconditioner::apply_block (the block-PCG seam) ---------------------

/// Every apply_block column must equal the per-column apply() bitwise,
/// for every thread count.
void expect_block_matches_apply(const Preconditioner& m, std::uint64_t seed) {
  const la::MultiVector r = random_rhs_block(m.size(), 5, seed);
  la::MultiVector z(m.size(), 5);
  for (const Index threads : {1, 2, 4, 8}) {
    m.apply_block(r.view(), z.view(), threads);
    for (Index j = 0; j < r.cols(); ++j) {
      la::Vector rj(r.col(j).begin(), r.col(j).end());
      la::Vector ref;
      m.apply(rj, ref);
      for (Index i = 0; i < m.size(); ++i)
        EXPECT_EQ(z(i, j), ref[static_cast<std::size_t>(i)])
            << "threads=" << threads << " col=" << j;
    }
  }
}

TEST(Preconditioner, DefaultApplyBlockMatchesApplyBitwise) {
  // IdentityPreconditioner has no apply_block override, so this runs the
  // base-class column-parallel fallback.
  expect_block_matches_apply(IdentityPreconditioner(71), 33);
}

TEST(Preconditioner, ApplyBlockShapeContracts) {
  const AmgPreconditioner amg(grounded_grid_laplacian(3, 2));
  la::MultiVector r(4, 2);  // wrong row count
  la::MultiVector z(5, 2);
  EXPECT_THROW(amg.apply_block(r.view(), z.view()), ContractViolation);
}

}  // namespace
}  // namespace sgl::solver
