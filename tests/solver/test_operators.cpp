// Unit tests for the solver-backed LinearOperator adapter.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "solver/operators.hpp"

namespace sgl::solver {
namespace {

TEST(Operators, LaplacianPinvOperatorMatchesSolver) {
  const graph::Graph g = graph::make_grid2d(6, 5).graph;
  const LaplacianPinvSolver pinv(g);
  const LaplacianPinvOperator op(pinv);
  EXPECT_EQ(op.rows(), g.num_nodes());
  EXPECT_EQ(op.cols(), g.num_nodes());

  Rng rng(1);
  la::Vector y(static_cast<std::size_t>(g.num_nodes()));
  for (Real& v : y) v = rng.normal();
  la::Vector x;
  op.apply(y, x);
  const la::Vector ref = pinv.apply(y);
  ASSERT_EQ(x.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_DOUBLE_EQ(x[i], ref[i]);
}

TEST(Operators, LaplacianPinvOperatorBlockMatchesPerColumn) {
  const graph::Graph g = graph::make_grid2d(5, 5).graph;
  const LaplacianPinvSolver pinv(g);
  const LaplacianPinvOperator op(pinv);
  Rng rng(2);
  la::MultiVector y(g.num_nodes(), 5);
  for (Index j = 0; j < 5; ++j)
    for (Real& v : y.col(j)) v = rng.normal();
  la::MultiVector x(g.num_nodes(), 5);
  op.apply_block(y.view(), x.view());
  for (Index j = 0; j < 5; ++j) {
    const la::Vector yj(y.col(j).begin(), y.col(j).end());
    const la::Vector ref = pinv.apply(yj);
    for (Index i = 0; i < g.num_nodes(); ++i)
      EXPECT_DOUBLE_EQ(x(i, j), ref[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace sgl::solver
