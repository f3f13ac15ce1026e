// SolverContext reuse-or-rebuild policy: warm reuse of an unchanged
// graph, fresh rebuilds on a new node set, and the cached-ordering
// rebuild path with its reuse cap (DESIGN.md §8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "solver/solver_context.hpp"

namespace sgl::solver {
namespace {

la::Vector centered_rhs(Index n, std::uint64_t seed) {
  Rng rng(seed);
  la::Vector y(static_cast<std::size_t>(n));
  for (auto& v : y) v = rng.normal();
  la::center(y);
  return y;
}

/// Relative ‖x − x_ref‖ / ‖x_ref‖ between a context-produced solve and a
/// from-scratch solver of the same graph (a factor on a reused ordering
/// matches a fresh one to rounding, not bitwise).
Real solve_rel_diff(const LaplacianPinvSolver& pinv, const graph::Graph& g,
                    std::uint64_t seed = 77) {
  const la::Vector y = centered_rhs(g.num_nodes(), seed);
  const la::Vector x = pinv.apply(y);
  const LaplacianPinvSolver fresh(g);
  const la::Vector x_ref = fresh.apply(y);
  Real num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - x_ref[i]) * (x[i] - x_ref[i]);
    den += x_ref[i] * x_ref[i];
  }
  return std::sqrt(num / den);
}

/// Asserts a and b produce bitwise-identical solves of one seeded block.
void expect_same_solves_bitwise(const LaplacianPinvSolver& a,
                                const LaplacianPinvSolver& b, Index n) {
  la::DenseMatrix y(n, 3);
  for (Index j = 0; j < 3; ++j) {
    const la::Vector col = centered_rhs(n, 90 + static_cast<std::uint64_t>(j));
    for (Index i = 0; i < n; ++i) y(i, j) = col[static_cast<std::size_t>(i)];
  }
  const la::DenseMatrix xa = a.apply_block(y);
  const la::DenseMatrix xb = b.apply_block(y);
  for (Index j = 0; j < 3; ++j)
    for (Index i = 0; i < n; ++i) EXPECT_EQ(xa(i, j), xb(i, j));
}

SolverContextOptions options_with_mode(IncrementalMode mode) {
  SolverContextOptions options;
  options.mode = mode;
  return options;
}

TEST(SolverContext, ModeNamesRoundTrip) {
  for (const IncrementalMode mode :
       {IncrementalMode::kAuto, IncrementalMode::kOff}) {
    const auto parsed = parse_incremental_mode(incremental_mode_name(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_incremental_mode("sometimes").has_value());
  EXPECT_FALSE(parse_incremental_mode("on").has_value());  // retired
  EXPECT_EQ(incremental_mode_name_list(), "auto, off");
}

TEST(SolverContext, OffModeRebuildsEveryAcquire) {
  const graph::Graph g = graph::make_grid2d(5, 5).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kOff));
  EXPECT_FALSE(ctx.incremental());
  (void)ctx.acquire(g);
  (void)ctx.acquire(g);
  EXPECT_EQ(ctx.stats().acquisitions, 2);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().pattern_misses, 1);  // the second replaced the first
  EXPECT_EQ(ctx.stats().ordering_reuses, 0);
}

TEST(SolverContext, UnchangedGraphReusesWarmSolver) {
  const graph::Graph g = graph::make_grid2d(5, 5).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kAuto));
  const LaplacianPinvSolver& first = ctx.acquire(g);
  // A copy has the same GraphKey, so it is the same graph state.
  const graph::Graph copy = g;
  const LaplacianPinvSolver& second = ctx.acquire(copy);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(ctx.stats().acquisitions, 2);
  EXPECT_EQ(ctx.stats().rebuilds, 1);
  EXPECT_EQ(ctx.stats().pattern_misses, 0);
}

TEST(SolverContext, PatternMissRebuildsAndReusesOrdering) {
  // Star grounded at the hub: the reduced system is diagonal, so any
  // leaf–leaf edge falls outside the factor pattern by construction.
  graph::Graph g = graph::make_star(10);
  SolverContext ctx(options_with_mode(IncrementalMode::kAuto));
  (void)ctx.acquire(g);
  g.add_edge(1, 2, 1.0);
  const LaplacianPinvSolver& pinv = ctx.acquire(g);
  EXPECT_EQ(ctx.stats().pattern_misses, 1);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().ordering_reuses, 1);
  EXPECT_EQ(ctx.stats().updates_applied, 0);
  EXPECT_EQ(ctx.stats().refactorizations, 0);
  EXPECT_LT(solve_rel_diff(pinv, g), 1e-9);
}

TEST(SolverContext, FreshOrderingAfterSixteenReusesInARow) {
  // 17 leaf–leaf chords on a star: each one is a rebuild; the first 16
  // reuse the cached ordering, the 17th takes a fresh one (the cap), and
  // the streak then starts over.
  const Index chords = SolverContext::kMaxOrderingReuses + 1;
  ASSERT_EQ(chords, 17);
  graph::Graph g = graph::make_star(2 * chords + 4);
  SolverContext ctx(options_with_mode(IncrementalMode::kAuto));
  (void)ctx.acquire(g);  // fresh build, no reuse streak
  for (Index c = 0; c < chords; ++c) {
    g.add_edge(2 * c + 1, 2 * c + 2, 1.0);
    (void)ctx.acquire(g);
    EXPECT_EQ(ctx.stats().ordering_reuses,
              std::min(c + 1, SolverContext::kMaxOrderingReuses))
        << "chord " << c;
  }
  EXPECT_EQ(ctx.stats().rebuilds, chords + 1);
  EXPECT_EQ(ctx.stats().pattern_misses, chords);
  EXPECT_EQ(ctx.stats().ordering_reuses, 16);
  // The 17th rebuild ran the ordering heuristic: same permutation, same
  // solves as a from-scratch solver of the grown graph.
  const LaplacianPinvSolver fresh(g);
  EXPECT_EQ(ctx.acquire(g).cholesky_permutation(),
            fresh.cholesky_permutation());
  expect_same_solves_bitwise(ctx.acquire(g), fresh, g.num_nodes());

  g.add_edge(2 * chords + 1, 2 * chords + 2, 1.0);
  (void)ctx.acquire(g);
  EXPECT_EQ(ctx.stats().ordering_reuses, 17);  // a new streak begins
}

TEST(SolverContext, WeightsOnlyChangeRebuildsOnCachedOrdering) {
  graph::Graph g = graph::make_grid2d(6, 4).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kAuto));
  const std::vector<Index> ordering = ctx.acquire(g).cholesky_permutation();
  ASSERT_FALSE(ordering.empty());
  g.scale_weights(2.0);
  const LaplacianPinvSolver& pinv = ctx.acquire(g);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().pattern_misses, 1);
  EXPECT_EQ(ctx.stats().ordering_reuses, 1);
  EXPECT_EQ(pinv.cholesky_permutation(), ordering);
  // Bitwise the ordering-hint constructor on the new weights.
  const LaplacianPinvSolver hinted(g, {}, ordering);
  expect_same_solves_bitwise(pinv, hinted, g.num_nodes());
}

TEST(SolverContext, WeightChangePlusAppendForcesRebuild) {
  graph::Graph g = graph::make_grid2d(6, 4).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kAuto));
  (void)ctx.acquire(g);
  g.scale_weights(3.0);
  const graph::Edge dup = g.edges()[0];
  g.add_edge(dup.s, dup.t, 0.25);
  const LaplacianPinvSolver& pinv = ctx.acquire(g);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().ordering_reuses, 1);
  EXPECT_LT(solve_rel_diff(pinv, g), 1e-9);
}

TEST(SolverContext, PcgAmgPathReusesOrRebuildsWithoutOrderingHint) {
  // The iterative path has no factor ordering to cache: an unchanged
  // graph hands back the same solver, and an appended edge rebuilds it
  // exactly as a from-scratch solver would.
  graph::Graph g = graph::make_grid2d(9, 8).graph;
  SolverContextOptions options = options_with_mode(IncrementalMode::kAuto);
  options.solver.method = LaplacianMethod::kPcgAmg;
  SolverContext ctx(options);
  const LaplacianPinvSolver& first = ctx.acquire(g);
  EXPECT_EQ(first.method(), LaplacianMethod::kPcgAmg);
  EXPECT_EQ(&ctx.acquire(g), &first);
  EXPECT_EQ(ctx.stats().rebuilds, 1);

  g.add_edge(0, g.num_nodes() - 1, 0.5);
  const LaplacianPinvSolver& grown = ctx.acquire(g);
  EXPECT_EQ(grown.method(), LaplacianMethod::kPcgAmg);
  EXPECT_TRUE(grown.cholesky_permutation().empty());
  EXPECT_EQ(ctx.stats().acquisitions, 3);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().pattern_misses, 1);
  EXPECT_EQ(ctx.stats().ordering_reuses, 0);
  const LaplacianPinvSolver fresh(g, options.solver);
  expect_same_solves_bitwise(grown, fresh, g.num_nodes());
}

TEST(SolverContext, NodeCountChangeRebuildsWithFreshOrdering) {
  SolverContext ctx(options_with_mode(IncrementalMode::kAuto));
  (void)ctx.acquire(graph::make_grid2d(5, 5).graph);
  (void)ctx.acquire(graph::make_grid2d(6, 6).graph);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().pattern_misses, 0);
  EXPECT_EQ(ctx.stats().ordering_reuses, 0);
}

TEST(SolverContext, InvalidateDropsWarmState) {
  const graph::Graph g = graph::make_grid2d(5, 5).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kAuto));
  (void)ctx.acquire(g);
  ctx.store_warm_subspace(la::DenseMatrix(g.num_nodes(), 2));
  EXPECT_EQ(ctx.warm_subspace().rows(), g.num_nodes());
  ctx.invalidate();
  EXPECT_EQ(ctx.warm_subspace().rows(), 0);
  (void)ctx.acquire(g);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().pattern_misses, 0);
  EXPECT_EQ(ctx.stats().ordering_reuses, 0);
}

TEST(SolverContext, WarmSubspaceStoredOnlyInIncrementalModes) {
  SolverContext off(options_with_mode(IncrementalMode::kOff));
  off.store_warm_subspace(la::DenseMatrix(8, 2));
  EXPECT_EQ(off.warm_subspace().rows(), 0);  // kOff stays bitwise-historical

  SolverContext on(options_with_mode(IncrementalMode::kAuto));
  on.store_warm_subspace(la::DenseMatrix(8, 2));
  EXPECT_EQ(on.warm_subspace().rows(), 8);
  EXPECT_EQ(on.warm_subspace().cols(), 2);
}

// --- Ordering-hint constructor (the cached-ordering rebuild primitive) ---

TEST(SolverContext, OrderingHintCtorReproducesSamePermutationBitwise) {
  const graph::Graph g = graph::make_grid2d(7, 6).graph;
  const LaplacianPinvSolver fresh(g);
  ASSERT_EQ(fresh.method(), LaplacianMethod::kCholesky);
  ASSERT_FALSE(fresh.cholesky_permutation().empty());

  const LaplacianPinvSolver hinted(g, {}, fresh.cholesky_permutation());
  EXPECT_EQ(hinted.cholesky_permutation(), fresh.cholesky_permutation());
  const la::Vector y = centered_rhs(g.num_nodes(), 5);
  const la::Vector x_fresh = fresh.apply(y);
  const la::Vector x_hinted = hinted.apply(y);
  for (std::size_t i = 0; i < x_fresh.size(); ++i)
    EXPECT_EQ(x_fresh[i], x_hinted[i]);  // same perm ⇒ same float stream
}

TEST(SolverContext, OrderingHintSizeMismatchThrows) {
  const graph::Graph g = graph::make_grid2d(4, 4).graph;
  std::vector<Index> bad(static_cast<std::size_t>(g.num_nodes()));  // need n−1
  for (Index i = 0; i < g.num_nodes(); ++i)
    bad[static_cast<std::size_t>(i)] = i;
  EXPECT_THROW((LaplacianPinvSolver{g, {}, bad}), ContractViolation);
}

TEST(SolverContext, OrderingHintIgnoredOnPcgMethods) {
  const graph::Graph g = graph::make_grid2d(6, 6).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kPcgAmg;
  std::vector<Index> hint(static_cast<std::size_t>(g.num_nodes() - 1));
  for (Index i = 0; i + 1 < g.num_nodes(); ++i)
    hint[static_cast<std::size_t>(i)] = i;
  const LaplacianPinvSolver pinv(g, options, hint);
  EXPECT_EQ(pinv.method(), LaplacianMethod::kPcgAmg);
  EXPECT_TRUE(pinv.cholesky_permutation().empty());
  EXPECT_LT(solve_rel_diff(pinv, g), 1e-7);
}

}  // namespace
}  // namespace sgl::solver
