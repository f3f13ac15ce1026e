// SolverContext reconciliation policy: warm reuse, rank-1 update,
// renumeration, rebuild, and the cached-ordering rebuild path
// (DESIGN.md §8).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <utility>
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
/// from-scratch solver of the same graph (an updated factor matches a
/// fresh one to rounding, not bitwise).
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

SolverContextOptions options_with_mode(IncrementalMode mode) {
  SolverContextOptions options;
  options.mode = mode;
  return options;
}

TEST(SolverContext, ModeNamesRoundTrip) {
  for (const IncrementalMode mode :
       {IncrementalMode::kAuto, IncrementalMode::kOn, IncrementalMode::kOff}) {
    const auto parsed = parse_incremental_mode(incremental_mode_name(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_incremental_mode("sometimes").has_value());
  EXPECT_NE(incremental_mode_name_list().find("auto"), std::string::npos);
}

TEST(SolverContext, OffModeRebuildsEveryAcquire) {
  const graph::Graph g = graph::make_grid2d(5, 5).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kOff));
  EXPECT_FALSE(ctx.incremental());
  (void)ctx.acquire(g);
  (void)ctx.acquire(g);
  EXPECT_EQ(ctx.stats().acquisitions, 2);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().ordering_reuses, 0);
}

TEST(SolverContext, UnchangedGraphReusesWarmSolver) {
  const graph::Graph g = graph::make_grid2d(5, 5).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kOn));
  const LaplacianPinvSolver& first = ctx.acquire(g);
  const LaplacianPinvSolver& second = ctx.acquire(g);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(ctx.stats().acquisitions, 2);
  EXPECT_EQ(ctx.stats().rebuilds, 1);
}

TEST(SolverContext, AppendedInPatternEdgeAppliedAsUpdate) {
  // A parallel edge duplicates an existing stamp, so it is guaranteed to
  // be inside the analyzed factor pattern.
  graph::Graph g = graph::make_grid2d(5, 5).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kOn));
  (void)ctx.acquire(g);
  const graph::Edge dup = g.edges()[10];
  g.add_edge(dup.s, dup.t, 0.5);
  const LaplacianPinvSolver& pinv = ctx.acquire(g);
  EXPECT_EQ(ctx.stats().rebuilds, 1);
  EXPECT_EQ(ctx.stats().updates_applied, 1);
  EXPECT_EQ(ctx.stats().pattern_misses, 0);
  EXPECT_LT(solve_rel_diff(pinv, g), 1e-9);
}

TEST(SolverContext, PatternMissRebuildsAndReusesOrdering) {
  // Star grounded at the hub: the reduced system is diagonal, so any
  // leaf–leaf edge falls outside the factor pattern by construction.
  graph::Graph g = graph::make_star(10);
  SolverContext ctx(options_with_mode(IncrementalMode::kOn));
  (void)ctx.acquire(g);
  g.add_edge(1, 2, 1.0);
  const LaplacianPinvSolver& pinv = ctx.acquire(g);
  EXPECT_EQ(ctx.stats().pattern_misses, 1);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().updates_applied, 0);
  EXPECT_EQ(ctx.stats().ordering_reuses, 1);
  EXPECT_LT(solve_rel_diff(pinv, g), 1e-9);
}

TEST(SolverContext, AutoRefreshesOrderingAfterConsecutiveReuseCap) {
  graph::Graph g = graph::make_star(12);
  SolverContextOptions options = options_with_mode(IncrementalMode::kAuto);
  options.max_ordering_reuses = 2;
  SolverContext ctx(options);
  (void)ctx.acquire(g);  // fresh build, no reuse streak
  const std::array<std::pair<Index, Index>, 4> chords{
      {{1, 2}, {3, 4}, {5, 6}, {7, 8}}};
  for (const auto& [s, t] : chords) {
    g.add_edge(s, t, 1.0);
    (void)ctx.acquire(g);  // each chord is a pattern miss → rebuild
  }
  EXPECT_EQ(ctx.stats().pattern_misses, 4);
  EXPECT_EQ(ctx.stats().rebuilds, 5);
  // Streak: reuse, reuse, fresh (cap of 2 hit), reuse.
  EXPECT_EQ(ctx.stats().ordering_reuses, 3);
}

TEST(SolverContext, OnModeReusesOrderingWithoutLimit) {
  graph::Graph g = graph::make_star(12);
  SolverContextOptions options = options_with_mode(IncrementalMode::kOn);
  options.max_ordering_reuses = 1;  // ignored by kOn
  SolverContext ctx(options);
  (void)ctx.acquire(g);
  const std::array<std::pair<Index, Index>, 3> chords{{{1, 2}, {3, 4}, {5, 6}}};
  for (const auto& [s, t] : chords) {
    g.add_edge(s, t, 1.0);
    (void)ctx.acquire(g);
  }
  EXPECT_EQ(ctx.stats().ordering_reuses, 3);
}

TEST(SolverContext, WeightsOnlyChangeRefactorizes) {
  graph::Graph g = graph::make_grid2d(6, 4).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kOn));
  (void)ctx.acquire(g);
  g.scale_weights(2.0);
  const LaplacianPinvSolver& pinv = ctx.acquire(g);
  EXPECT_EQ(ctx.stats().rebuilds, 1);
  EXPECT_EQ(ctx.stats().refactorizations, 1);
  EXPECT_LT(solve_rel_diff(pinv, g), 1e-9);
}

TEST(SolverContext, WeightChangePlusAppendForcesRebuild) {
  graph::Graph g = graph::make_grid2d(6, 4).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kOn));
  (void)ctx.acquire(g);
  g.scale_weights(3.0);
  const graph::Edge dup = g.edges()[0];
  g.add_edge(dup.s, dup.t, 0.25);
  const LaplacianPinvSolver& pinv = ctx.acquire(g);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().refactorizations, 0);
  EXPECT_LT(solve_rel_diff(pinv, g), 1e-9);
}

TEST(SolverContext, NodeCountChangeRebuildsWithFreshOrdering) {
  SolverContext ctx(options_with_mode(IncrementalMode::kOn));
  (void)ctx.acquire(graph::make_grid2d(5, 5).graph);
  (void)ctx.acquire(graph::make_grid2d(6, 6).graph);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().ordering_reuses, 0);
}

TEST(SolverContext, AutoRenumeratesAfterUpdateCap) {
  graph::Graph g = graph::make_grid2d(6, 6).graph;
  SolverContextOptions options = options_with_mode(IncrementalMode::kAuto);
  options.max_updates_between_refactor = 2;
  SolverContext ctx(options);
  (void)ctx.acquire(g);
  for (int round = 0; round < 3; ++round) {
    const graph::Edge dup = g.edges()[static_cast<std::size_t>(round)];
    g.add_edge(dup.s, dup.t, 0.1);
    (void)ctx.acquire(g);
  }
  EXPECT_EQ(ctx.stats().updates_applied, 3);
  EXPECT_EQ(ctx.stats().rebuilds, 1);
  EXPECT_GE(ctx.stats().refactorizations, 1);
  EXPECT_LT(solve_rel_diff(ctx.acquire(g), g), 1e-9);
}

TEST(SolverContext, InvalidateDropsWarmState) {
  const graph::Graph g = graph::make_grid2d(5, 5).graph;
  SolverContext ctx(options_with_mode(IncrementalMode::kOn));
  (void)ctx.acquire(g);
  ctx.store_warm_subspace(la::DenseMatrix(g.num_nodes(), 2));
  EXPECT_EQ(ctx.warm_subspace().rows(), g.num_nodes());
  ctx.invalidate();
  EXPECT_EQ(ctx.warm_subspace().rows(), 0);
  (void)ctx.acquire(g);
  EXPECT_EQ(ctx.stats().rebuilds, 2);
  EXPECT_EQ(ctx.stats().ordering_reuses, 0);
}

TEST(SolverContext, WarmSubspaceStoredOnlyInIncrementalModes) {
  SolverContext off(options_with_mode(IncrementalMode::kOff));
  off.store_warm_subspace(la::DenseMatrix(8, 2));
  EXPECT_EQ(off.warm_subspace().rows(), 0);  // kOff stays bitwise-historical

  SolverContext on(options_with_mode(IncrementalMode::kOn));
  on.store_warm_subspace(la::DenseMatrix(8, 2));
  EXPECT_EQ(on.warm_subspace().rows(), 8);
  EXPECT_EQ(on.warm_subspace().cols(), 2);
}

TEST(SolverContext, RejectsBadOptions) {
  SolverContextOptions options;
  options.max_updates_between_refactor = 0;
  EXPECT_THROW(SolverContext{options}, ContractViolation);
  options = SolverContextOptions{};
  options.growth_refactor_threshold = 0.0;
  EXPECT_THROW(SolverContext{options}, ContractViolation);
  options = SolverContextOptions{};
  options.max_ordering_reuses = -1;
  EXPECT_THROW(SolverContext{options}, ContractViolation);
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
