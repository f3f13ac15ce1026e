// Unit tests for the sparse LDLᵀ factorization.
#include <gtest/gtest.h>

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
  for (Index i = 0; i < n; ++i) t.push_back({i, i, diag[static_cast<std::size_t>(i)]});
  return la::CsrMatrix::from_triplets(n, n, t);
}

TEST(Cholesky, SolvesDiagonalSystem) {
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(
      3, 3, {{0, 0, 2.0}, {1, 1, 4.0}, {2, 2, 5.0}});
  const CholeskySolver solver(a);
  const la::Vector x = solver.solve({2.0, 8.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
  EXPECT_NEAR(x[2], 2.0, 1e-14);
}

class CholeskyOrderingSweep : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(CholeskyOrderingSweep, GroundedGridResidualTiny) {
  const graph::Graph g = graph::make_grid2d(9, 11).graph;
  const la::CsrMatrix a = grounded_laplacian(g);
  const CholeskySolver solver(a, GetParam());
  Rng rng(11);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  const la::Vector x = solver.solve(b);
  const la::Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Orderings, CholeskyOrderingSweep,
                         ::testing::Values(OrderingMethod::kNatural,
                                           OrderingMethod::kRcm,
                                           OrderingMethod::kMinimumDegree,
                                           OrderingMethod::kNestedDissection,
                                           OrderingMethod::kAuto));

class CholeskyRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CholeskyRandomSweep, RandomSpdResidualTiny) {
  const la::CsrMatrix a = random_spd(40, 0.15, GetParam());
  const CholeskySolver solver(a);
  Rng rng(GetParam() + 500);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  const la::Vector x = solver.solve(b);
  const la::Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskyRandomSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull,
                                           7ull, 8ull));

TEST(Cholesky, IndefiniteMatrixThrows) {
  // [1 2; 2 1] has eigenvalues 3 and −1.
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 1.0}});
  EXPECT_THROW(CholeskySolver{a}, NumericalError);
}

TEST(Cholesky, SingularLaplacianThrows) {
  // Full (ungrounded) Laplacian is singular.
  const la::CsrMatrix lap = graph::make_path(5).laplacian();
  EXPECT_THROW(CholeskySolver{lap}, NumericalError);
}

TEST(Cholesky, StatsAreFilled) {
  const graph::Graph g = graph::make_grid2d(8, 8).graph;
  const la::CsrMatrix a = grounded_laplacian(g);
  const CholeskySolver solver(a, OrderingMethod::kMinimumDegree);
  EXPECT_EQ(solver.stats().n, a.rows());
  EXPECT_EQ(solver.stats().input_nnz, a.nnz());
  EXPECT_GT(solver.stats().factor_nnz, 0);
  EXPECT_GT(solver.stats().num_supernodes, 0);
  EXPECT_GT(solver.stats().num_levels, 0);
  EXPECT_GE(solver.stats().num_supernodes, solver.stats().num_levels);
  EXPECT_GE(solver.stats().max_level_supernodes, 1);
  EXPECT_GE(solver.stats().factor_seconds, 0.0);
}

TEST(Cholesky, PathChainCoalescesToOneBlock) {
  // The grounded path under the natural ordering factors as one
  // tridiagonal chain: every column's single child is its predecessor, so
  // chain coalescing folds the whole elimination tree into one column
  // block at one level (no spurious n-deep level schedule).
  const la::CsrMatrix a = grounded_laplacian(graph::make_path(64));
  const CholeskySolver solver(a, OrderingMethod::kNatural);
  EXPECT_EQ(solver.stats().num_supernodes, 1);
  EXPECT_EQ(solver.stats().num_levels, 1);
  EXPECT_EQ(solver.stats().max_level_supernodes, 1);
}

TEST(Cholesky, DiagonalMatrixIsOneLevelWide) {
  // No off-diagonals → the elimination "tree" is a forest of roots: n
  // singleton blocks, all independent, in a single level of width n.
  std::vector<la::Triplet> t;
  for (Index i = 0; i < 10; ++i) t.push_back({i, i, 2.0 + i});
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(10, 10, t);
  const CholeskySolver solver(a, OrderingMethod::kNatural);
  EXPECT_EQ(solver.stats().num_supernodes, 10);
  EXPECT_EQ(solver.stats().num_levels, 1);
  EXPECT_EQ(solver.stats().max_level_supernodes, 10);
}

TEST(Cholesky, GridHasParallelLevels) {
  // A fill-reducing ordering of a mesh produces a bushy elimination tree:
  // several blocks per level and more than one level.
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(15, 15).graph);
  const CholeskySolver solver(a, OrderingMethod::kMinimumDegree);
  EXPECT_GT(solver.stats().num_levels, 1);
  EXPECT_GT(solver.stats().max_level_supernodes, 1);
}

TEST(Cholesky, MinimumDegreeFillNoWorseThanNaturalOnGrid) {
  const graph::Graph g = graph::make_grid2d(15, 15).graph;
  const la::CsrMatrix a = grounded_laplacian(g);
  const CholeskySolver md(a, OrderingMethod::kMinimumDegree);
  const CholeskySolver nat(a, OrderingMethod::kNatural);
  EXPECT_LE(md.stats().factor_nnz, nat.stats().factor_nnz);
}

TEST(Cholesky, TreeFactorsWithLinearFill) {
  // A tree admits a no-fill factorization under minimum degree: the factor
  // of the grounded path (a tridiagonal chain) has exactly n−1
  // off-diagonal entries.
  const graph::Graph tree = graph::make_path(200);
  const la::CsrMatrix a = grounded_laplacian(tree);
  const CholeskySolver solver(a, OrderingMethod::kMinimumDegree);
  EXPECT_EQ(solver.stats().factor_nnz, a.rows() - 1);
}

TEST(Cholesky, SolveInPlaceMatchesSolve) {
  const la::CsrMatrix a = random_spd(20, 0.3, 77);
  const CholeskySolver solver(a);
  Rng rng(78);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  la::Vector x = b;
  solver.solve_in_place(x);
  EXPECT_EQ(x, solver.solve(b));
}

TEST(Cholesky, WrongRhsSizeThrows) {
  const la::CsrMatrix a = la::CsrMatrix::identity(3);
  const CholeskySolver solver(a);
  EXPECT_THROW(solver.solve({1.0}), ContractViolation);
  la::MultiVector wrong(2, 2);
  EXPECT_THROW(solver.solve_in_place_block(wrong.view()), ContractViolation);
}

class CholeskyBlockSweep : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(CholeskyBlockSweep, SolveBlockMatchesScalarSolveBitwise) {
  // The block sweeps gather every output element in the same fixed order
  // as the scalar reference path, so each block column must equal the
  // per-column solve bit for bit — on a mesh and on an irregular SPD
  // matrix, under every ordering.
  const la::CsrMatrix mesh = grounded_laplacian(graph::make_grid2d(9, 11).graph);
  const la::CsrMatrix rand = random_spd(60, 0.12, 321);
  for (const la::CsrMatrix* a : {&mesh, &rand}) {
    const CholeskySolver solver(*a, GetParam());
    const la::MultiVector b = random_block_rhs(a->rows(), 7, 55);
    const la::MultiVector x = solver.solve_block(b, 1);
    for (Index j = 0; j < b.cols(); ++j) {
      const la::Vector ref =
          solver.solve(la::Vector(b.col(j).begin(), b.col(j).end()));
      for (Index i = 0; i < a->rows(); ++i)
        EXPECT_EQ(x(i, j), ref[static_cast<std::size_t>(i)])
            << "i=" << i << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orderings, CholeskyBlockSweep,
                         ::testing::Values(OrderingMethod::kNatural,
                                           OrderingMethod::kRcm,
                                           OrderingMethod::kMinimumDegree,
                                           OrderingMethod::kNestedDissection,
                                           OrderingMethod::kAuto));

TEST(Cholesky, SolveBlockBitIdenticalAcrossThreadCounts) {
  // A 48² mesh has levels whose work clears the inline cutoff, so
  // threads > 1 really schedule level sets on the pool.
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(48, 48).graph);
  const CholeskySolver solver(a, OrderingMethod::kMinimumDegree);
  const la::MultiVector b = random_block_rhs(a.rows(), 8, 77);
  const la::MultiVector serial = solver.solve_block(b, 1);
  for (const Index threads : {2, 4, 8}) {
    const la::MultiVector threaded = solver.solve_block(b, threads);
    EXPECT_EQ(serial.data(), threaded.data()) << "threads=" << threads;
  }
}

TEST(Cholesky, FactorBitIdenticalAcrossThreadCounts) {
  // The level-scheduled numeric factorization applies each column's
  // updates in a fixed order, so the factor — observed through solves —
  // must be bit-identical for every worker count.
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(48, 48).graph);
  const CholeskySolver reference(a, OrderingMethod::kMinimumDegree, 1);
  ASSERT_GT(reference.stats().pool_levels, 0);  // the pool really runs
  la::Vector rhs(static_cast<std::size_t>(a.rows()));
  Rng rng(88);
  for (Real& v : rhs) v = rng.normal();
  const la::Vector expected = reference.solve(rhs);
  for (const Index threads : {2, 4, 8}) {
    const CholeskySolver solver(a, OrderingMethod::kMinimumDegree, threads);
    EXPECT_EQ(solver.solve(rhs), expected) << "threads=" << threads;
  }
}

TEST(Cholesky, SolveBlockEmptyBlockIsNoOp) {
  const la::CsrMatrix a = la::CsrMatrix::identity(4);
  const CholeskySolver solver(a);
  la::MultiVector empty(4, 0);
  solver.solve_in_place_block(empty.view());  // must not touch anything
  EXPECT_EQ(empty.cols(), 0);
}

}  // namespace
}  // namespace sgl::solver
