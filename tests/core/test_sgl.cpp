// Unit tests for the SGL learner (paper Algorithm 1 mechanics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "core/sgl.hpp"
#include "graph/components.hpp"
#include "graph/fingerprint.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "measure/measurements.hpp"
#include "spectral/embedding.hpp"

namespace sgl::core {
namespace {

measure::Measurements grid_measurements(Index nx, Index ny, Index m,
                                        std::uint64_t seed = 2021) {
  const graph::Graph g = graph::make_grid2d(nx, ny).graph;
  measure::MeasurementOptions options;
  options.num_measurements = m;
  options.seed = seed;
  return measure::generate_measurements(g, options);
}

TEST(SglLearner, InitialGraphIsSpanningTreeOfKnn) {
  const measure::Measurements m = grid_measurements(10, 10, 30);
  SglConfig config;
  SglLearner learner(m.voltages, config);
  EXPECT_EQ(learner.current_graph().num_edges(),
            learner.current_graph().num_nodes() - 1);
  EXPECT_TRUE(graph::is_connected(learner.current_graph()));
  EXPECT_TRUE(graph::is_connected(learner.knn_graph()));
  EXPECT_EQ(learner.iteration(), 0);
  EXPECT_FALSE(learner.converged());
}

TEST(SglLearner, StepAddsAtMostCeilNBetaEdges) {
  const measure::Measurements m = grid_measurements(12, 12, 30);
  SglConfig config;
  config.beta = 0.02;  // ⌈144·0.02⌉ = 3
  SglLearner learner(m.voltages, config);
  const Index before = learner.current_graph().num_edges();
  const SglIterationStats stats = learner.step();
  EXPECT_LE(stats.edges_added, 3);
  EXPECT_EQ(learner.current_graph().num_edges(), before + stats.edges_added);
  EXPECT_EQ(stats.iteration, 1);
  EXPECT_EQ(stats.total_edges, learner.current_graph().num_edges());
}

TEST(SglLearner, HistoryAccumulates) {
  const measure::Measurements m = grid_measurements(8, 8, 25);
  SglConfig config;
  config.max_iterations = 5;
  SglLearner learner(m.voltages, config);
  for (int i = 0; i < 3 && !learner.converged(); ++i) learner.step();
  EXPECT_LE(learner.history().size(), 3u);
  if (learner.history().size() >= 2) {
    EXPECT_EQ(learner.history()[0].iteration, 1);
    EXPECT_EQ(learner.history()[1].iteration, 2);
  }
}

TEST(SglLearner, StepAfterConvergenceIsNoop) {
  const measure::Measurements m = grid_measurements(6, 6, 20);
  SglConfig config;
  SglLearner learner(m.voltages, config);
  while (!learner.converged()) learner.step();
  const Index edges = learner.current_graph().num_edges();
  const SglIterationStats stats = learner.step();
  EXPECT_EQ(stats.edges_added, 0);
  EXPECT_EQ(learner.current_graph().num_edges(), edges);
}

TEST(SglLearner, ObserverSeesEveryIteration) {
  const measure::Measurements m = grid_measurements(8, 8, 25);
  SglConfig config;
  config.max_iterations = 50;
  std::vector<Index> seen;
  config.observer = [&seen](Index iteration, Real, Index) {
    seen.push_back(iteration);
  };
  SglLearner learner(m.voltages, config);
  const SglResult result = learner.run(nullptr);
  EXPECT_EQ(to_index(seen.size()), result.iterations);
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], to_index(i) + 1);
}

TEST(SglLearner, RunRespectsMaxIterations) {
  const measure::Measurements m = grid_measurements(12, 12, 30);
  SglConfig config;
  config.max_iterations = 2;
  config.tolerance = 0.0;  // never converge by tolerance
  SglLearner learner(m.voltages, config);
  const SglResult result = learner.run(nullptr);
  EXPECT_LE(result.iterations, 2);
}

TEST(SglLearner, LearnedGraphStaysConnectedAndSparse) {
  const measure::Measurements m = grid_measurements(12, 12, 40);
  const SglResult result = learn_graph(m.voltages, m.currents);
  EXPECT_TRUE(graph::is_connected(result.learned));
  EXPECT_TRUE(result.converged);
  // Ultra-sparse: density close to a tree's (n−1)/n ≈ 1, far below kNN's.
  EXPECT_LT(result.learned.density(), 1.3);
  EXPECT_GE(result.learned.num_edges(), result.learned.num_nodes() - 1);
}

TEST(SglLearner, AddedEdgesComeFromCandidatePool) {
  const measure::Measurements m = grid_measurements(10, 10, 30);
  SglConfig config;
  SglLearner learner(m.voltages, config);
  const SglResult result = learner.run(nullptr);
  // Every learned edge must exist in the kNN graph (same endpoints).
  std::set<std::pair<Index, Index>> candidate_pairs;
  for (const graph::Edge& e : result.knn_graph.edges())
    candidate_pairs.emplace(e.s, e.t);
  for (const graph::Edge& e : result.learned.edges())
    EXPECT_TRUE(candidate_pairs.count({e.s, e.t})) << e.s << "," << e.t;
}

TEST(SglLearner, EdgeWeightsFollowDataDistances) {
  const measure::Measurements m = grid_measurements(9, 9, 30);
  SglConfig config;
  config.edge_scaling = false;  // inspect raw M/z_data weights
  SglLearner learner(m.voltages, config);
  const SglResult result = learner.run(nullptr);
  const Real cols = static_cast<Real>(m.voltages.cols());
  for (const graph::Edge& e : result.learned.edges()) {
    const Real z = m.voltages.row_distance_squared(e.s, e.t);
    EXPECT_NEAR(e.weight, cols / z, cols / z * 1e-9);
  }
}

TEST(SglLearner, VoltageOnlyRunSkipsScaling) {
  const measure::Measurements m = grid_measurements(8, 8, 25);
  const SglResult result = learn_graph(m.voltages);
  EXPECT_DOUBLE_EQ(result.scale_factor, 1.0);
}

TEST(SglLearner, ScalingChangesOnlyScale) {
  const measure::Measurements m = grid_measurements(8, 8, 25);
  SglConfig config;
  const SglResult with_y = learn_graph(m.voltages, m.currents, config);
  config.edge_scaling = false;
  const SglResult without = learn_graph(m.voltages, m.currents, config);
  ASSERT_EQ(with_y.learned.num_edges(), without.learned.num_edges());
  for (Index e = 0; e < with_y.learned.num_edges(); ++e) {
    EXPECT_NEAR(with_y.learned.edge(e).weight,
                without.learned.edge(e).weight * with_y.scale_factor,
                1e-9 * with_y.learned.edge(e).weight);
  }
}

TEST(SglLearner, DeterministicAcrossRuns) {
  const measure::Measurements m = grid_measurements(9, 9, 25);
  const SglResult a = learn_graph(m.voltages, m.currents);
  const SglResult b = learn_graph(m.voltages, m.currents);
  ASSERT_EQ(a.learned.num_edges(), b.learned.num_edges());
  for (Index e = 0; e < a.learned.num_edges(); ++e) {
    EXPECT_EQ(a.learned.edge(e).s, b.learned.edge(e).s);
    EXPECT_EQ(a.learned.edge(e).t, b.learned.edge(e).t);
    EXPECT_DOUBLE_EQ(a.learned.edge(e).weight, b.learned.edge(e).weight);
  }
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(SglLearner, StepwiseMatchesOneShot) {
  const measure::Measurements m = grid_measurements(9, 9, 25);
  SglConfig config;
  SglLearner stepwise(m.voltages, config);
  while (!stepwise.converged() && !stepwise.exhausted() &&
         stepwise.iteration() < config.max_iterations) {
    stepwise.step();
  }
  const SglResult a = stepwise.finalize(&m.currents);
  const SglResult b = learn_graph(m.voltages, m.currents, config);
  EXPECT_EQ(a.learned.num_edges(), b.learned.num_edges());
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(SglLearner, SmaxTrendsDownward) {
  const measure::Measurements m = grid_measurements(12, 12, 40);
  SglConfig config;
  const SglResult result = learn_graph(m.voltages, m.currents, config);
  ASSERT_GE(result.history.size(), 3u);
  // Overall decreasing trend: last recorded smax well below the first.
  EXPECT_LT(result.history.back().smax, result.history.front().smax);
}

TEST(SglLearner, ConvergenceCertificateHolds) {
  // After convergence, every remaining candidate edge's sensitivity
  // (recomputed from a fresh embedding of the final graph) is below
  // tolerance — the paper's §II-C optimality certificate.
  const measure::Measurements m = grid_measurements(10, 10, 30);
  SglConfig config;
  SglLearner learner(m.voltages, config);
  const SglResult result = learner.run(nullptr);  // unscaled weights
  ASSERT_TRUE(result.converged);

  spectral::EmbeddingOptions eopt;
  eopt.r = config.embedding.r;
  eopt.sigma2 = config.embedding.sigma2;
  const spectral::Embedding emb =
      spectral::compute_embedding(result.learned, eopt);

  std::set<std::pair<Index, Index>> learned_pairs;
  for (const graph::Edge& e : result.learned.edges())
    learned_pairs.emplace(e.s, e.t);
  const Real cols = static_cast<Real>(m.voltages.cols());
  for (const graph::Edge& e : result.knn_graph.edges()) {
    if (learned_pairs.count({e.s, e.t})) continue;  // not a candidate anymore
    const Real z_emb = emb.u.row_distance_squared(e.s, e.t);
    const Real z_data = m.voltages.row_distance_squared(e.s, e.t);
    // Tolerance padded for the eigensolver's own tolerance.
    EXPECT_LE(z_emb - z_data / cols, config.tolerance + 1e-8);
  }
}

TEST(SglLearner, InvariantToMeasurementColumnPermutation) {
  // Reordering the measurement pairs (columns of X and Y together) must
  // not change the learned graph.
  const measure::Measurements m = grid_measurements(8, 8, 12);
  la::DenseMatrix x_perm(m.voltages.rows(), m.voltages.cols());
  la::DenseMatrix y_perm(m.currents.rows(), m.currents.cols());
  const std::vector<Index> perm{5, 2, 9, 0, 11, 7, 1, 10, 3, 8, 6, 4};
  for (Index j = 0; j < 12; ++j) {
    x_perm.set_col(j, m.voltages.col_vector(perm[static_cast<std::size_t>(j)]));
    y_perm.set_col(j, m.currents.col_vector(perm[static_cast<std::size_t>(j)]));
  }
  const SglResult a = learn_graph(m.voltages, m.currents);
  const SglResult b = learn_graph(x_perm, y_perm);
  ASSERT_EQ(a.learned.num_edges(), b.learned.num_edges());
  for (Index e = 0; e < a.learned.num_edges(); ++e) {
    EXPECT_EQ(a.learned.edge(e).s, b.learned.edge(e).s);
    EXPECT_EQ(a.learned.edge(e).t, b.learned.edge(e).t);
    EXPECT_NEAR(a.learned.edge(e).weight, b.learned.edge(e).weight,
                1e-6 * a.learned.edge(e).weight);
  }
}

TEST(SglLearner, ConvergedRunIsNotExhausted) {
  // A normal run on mesh measurements reaches the smax < tol certificate
  // with candidates left in the pool.
  const measure::Measurements m = grid_measurements(10, 10, 30);
  const SglResult result = learn_graph(m.voltages, m.currents);
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.exhausted);
  EXPECT_LT(result.final_smax, SglConfig{}.tolerance);
}

TEST(SglLearner, ExhaustionIsNotReportedAsConvergence) {
  // Points on a circle make the kNN graph a ring: the spanning tree drops
  // exactly one edge, and that candidate closes a long resistive path, so
  // its sensitivity is strongly positive. With β = 1 it is added in the
  // first step, draining the pool while smax ≥ tolerance — the run must
  // report exhausted, NOT converged (no distortion certificate holds).
  const Index n = 12;
  la::DenseMatrix x(n, 2);
  for (Index i = 0; i < n; ++i) {
    const Real angle = 2.0 * 3.14159265358979 * static_cast<Real>(i) /
                       static_cast<Real>(n);
    x(i, 0) = std::cos(angle);
    x(i, 1) = std::sin(angle);
  }
  SglConfig config;
  config.k = 2;
  config.embedding.r = 3;
  config.tolerance = 0.0;
  config.beta = 1.0;
  SglLearner learner(x, config);
  ASSERT_EQ(learner.knn_graph().num_edges(),
            learner.current_graph().num_edges() + 1);
  const SglResult result = learner.run(nullptr);
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(result.converged);
  EXPECT_GT(result.final_smax, 0.0);
  EXPECT_TRUE(learner.exhausted());
  EXPECT_FALSE(learner.converged());
  // The ring was completed: all candidate edges are in the learned graph.
  EXPECT_EQ(result.learned.num_edges(), n);
}

TEST(SglLearner, StepAfterExhaustionIsNoopAndStaysUnconverged) {
  // Drive a learner until its pool drains (or it converges at the
  // boundary), then confirm step() is a no-op that does not flip states.
  const measure::Measurements m = grid_measurements(5, 5, 15);
  SglConfig config;
  config.tolerance = 0.0;
  config.beta = 1.0;
  SglLearner learner(m.voltages, config);
  for (Index i = 0; i < 200 && !learner.exhausted() && !learner.converged();
       ++i)
    learner.step();
  ASSERT_TRUE(learner.exhausted() || learner.converged());
  const bool was_converged = learner.converged();
  const Index edges = learner.current_graph().num_edges();
  const SglIterationStats stats = learner.step();
  EXPECT_EQ(stats.edges_added, 0);
  EXPECT_EQ(learner.current_graph().num_edges(), edges);
  EXPECT_EQ(learner.converged(), was_converged);
}

TEST(SglLearner, ThreadedRunMatchesSerialBitForBit) {
  // The sensitivity scan fills a preallocated array and reduces the max
  // in fixed chunk order, so the whole learned graph must be bit-identical
  // for every thread count.
  const measure::Measurements m = grid_measurements(9, 9, 25);
  SglConfig serial_config;
  serial_config.num_threads = 1;
  const SglResult serial = learn_graph(m.voltages, m.currents, serial_config);
  for (const Index threads : {2, 4}) {
    SglConfig config;
    config.num_threads = threads;
    const SglResult parallel = learn_graph(m.voltages, m.currents, config);
    ASSERT_EQ(parallel.learned.num_edges(), serial.learned.num_edges());
    for (Index e = 0; e < serial.learned.num_edges(); ++e) {
      EXPECT_EQ(parallel.learned.edge(e).s, serial.learned.edge(e).s);
      EXPECT_EQ(parallel.learned.edge(e).t, serial.learned.edge(e).t);
      EXPECT_EQ(parallel.learned.edge(e).weight, serial.learned.edge(e).weight);
    }
    EXPECT_EQ(parallel.iterations, serial.iterations);
    EXPECT_EQ(parallel.final_smax, serial.final_smax);
    EXPECT_EQ(parallel.scale_factor, serial.scale_factor);
    ASSERT_EQ(parallel.history.size(), serial.history.size());
    for (std::size_t i = 0; i < serial.history.size(); ++i)
      EXPECT_EQ(parallel.history[i].smax, serial.history[i].smax);
  }
}

TEST(SglLearner, LearnedGraphKeyIdenticalAcrossThreadsOnMesh) {
  // The benchmark's shape at a test-sized mesh: 64² grid, M = 100. The
  // learned graph must carry the same GraphKey at 1 and 4 threads. HNSW
  // is forced (the default backend scans exhaustively at this N) so the
  // generation-parallel build and its distance kernel are on the path;
  // the solver-free engine and an iteration cap keep the test short.
  const measure::Measurements m = grid_measurements(64, 64, 100);
  SglConfig config;
  config.knn.backend = knn::KnnBackend::kHnsw;
  config.embedding.engine = spectral::EmbeddingEngine::kSolverFree;
  config.max_iterations = 10;
  config.num_threads = 1;
  const graph::GraphKey serial =
      graph::graph_key(learn_graph(m.voltages, m.currents, config).learned);
  config.num_threads = 4;
  const graph::GraphKey parallel =
      graph::graph_key(learn_graph(m.voltages, m.currents, config).learned);
  EXPECT_EQ(parallel.num_edges, serial.num_edges);
  EXPECT_EQ(parallel.endpoints, serial.endpoints);
  EXPECT_EQ(parallel.weights, serial.weights);
}

TEST(SglLearner, StepReportsEigensolverConvergence) {
  const measure::Measurements m = grid_measurements(9, 9, 30);
  SglConfig config;
  SglLearner learner(m.voltages, config);
  const SglIterationStats healthy = learner.step();
  EXPECT_TRUE(healthy.eig_converged);

  // A basis capped at r−1 vectors starves the block eigensolver; the
  // iteration must still make progress but flag the unconverged embedding.
  SglConfig starved_config;
  starved_config.embedding.lanczos.max_subspace =
      starved_config.embedding.r - 1;
  SglLearner starved(m.voltages, starved_config);
  const SglIterationStats stats = starved.step();
  EXPECT_FALSE(stats.eig_converged);
  EXPECT_EQ(stats.iteration, 1);
}

TEST(SglLearner, Contracts) {
  la::DenseMatrix x(2, 3);  // too few nodes
  SglConfig config;
  EXPECT_THROW(SglLearner(x, config), ContractViolation);

  la::DenseMatrix ok(10, 3);
  config.k = 10;
  EXPECT_THROW(SglLearner(ok, config), ContractViolation);
  config.k = 3;
  config.embedding.r = 1;
  EXPECT_THROW(SglLearner(ok, config), ContractViolation);
  config.embedding.r = 5;
  config.beta = 0.0;
  EXPECT_THROW(SglLearner(ok, config), ContractViolation);
  config.beta = 1e-3;
  config.tolerance = -1.0;
  EXPECT_THROW(SglLearner(ok, config), ContractViolation);
}

TEST(SglLearner, MismatchedXYShapesThrow) {
  const measure::Measurements m = grid_measurements(6, 6, 10);
  la::DenseMatrix y_bad(36, 9);
  EXPECT_THROW(learn_graph(m.voltages, y_bad), ContractViolation);
}

void expect_same_graph_bitwise(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_EQ(a.edges()[i].s, b.edges()[i].s) << "edge " << i;
    EXPECT_EQ(a.edges()[i].t, b.edges()[i].t) << "edge " << i;
    EXPECT_EQ(a.edges()[i].weight, b.edges()[i].weight) << "edge " << i;
  }
}

TEST(SglLearner, IncrementalRunBitIdenticalAcrossThreadCounts) {
  // The per-mode determinism contract (DESIGN.md §8): an incremental run
  // must reproduce itself bitwise for every thread count — every kernel
  // under the cached-ordering rebuilds is thread-count invariant.
  const measure::Measurements m = grid_measurements(10, 10, 30);
  SglConfig config;
  config.incremental = solver::IncrementalMode::kAuto;
  config.embedding.engine = spectral::EmbeddingEngine::kExact;
  config.num_threads = 1;
  const SglResult ref = learn_graph(m.voltages, m.currents, config);
  for (const Index threads : {2, 4, 8}) {
    config.num_threads = threads;
    const SglResult r = learn_graph(m.voltages, m.currents, config);
    expect_same_graph_bitwise(ref.learned, r.learned);
    EXPECT_EQ(ref.scale_factor, r.scale_factor) << "threads=" << threads;
  }
}

TEST(SglLearner, IncrementalOffIsDeterministicAndDefault) {
  // kOff is the default mode and promises the historical float stream:
  // two runs with an explicit kOff and a default config must agree
  // bitwise.
  const measure::Measurements m = grid_measurements(9, 9, 25);
  SglConfig config;
  config.embedding.engine = spectral::EmbeddingEngine::kExact;
  const SglResult a = learn_graph(m.voltages, m.currents, config);
  config.incremental = solver::IncrementalMode::kOff;
  const SglResult b = learn_graph(m.voltages, m.currents, config);
  expect_same_graph_bitwise(a.learned, b.learned);
  EXPECT_EQ(a.scale_factor, b.scale_factor);
}

TEST(SglLearner, IncrementalModesLearnEquivalentGraphs) {
  // Incremental runs may deviate from kOff in floating point (warm
  // refinement and reused orderings), but the learned structure must stay
  // equivalent: same convergence, near-identical edge sets.
  const measure::Measurements m = grid_measurements(12, 12, 30);
  SglConfig config;
  config.embedding.engine = spectral::EmbeddingEngine::kExact;
  const SglResult off = learn_graph(m.voltages, m.currents, config);
  config.incremental = solver::IncrementalMode::kAuto;
  const SglResult on = learn_graph(m.voltages, m.currents, config);
  EXPECT_EQ(off.converged, on.converged);
  EXPECT_NEAR(static_cast<double>(on.learned.num_edges()),
              static_cast<double>(off.learned.num_edges()),
              0.01 * static_cast<double>(off.learned.num_edges()) + 2.0);
}

TEST(SglLearner, SolverContextCountersTrackTheRun) {
  const measure::Measurements m = grid_measurements(10, 10, 30);
  SglConfig config;
  config.embedding.engine = spectral::EmbeddingEngine::kExact;
  config.max_iterations = 4;
  {
    SglLearner learner(m.voltages, config);
    for (int i = 0; i < 4 && !learner.converged(); ++i) learner.step();
    const solver::SolverContextStats& cs = learner.solver_context().stats();
    // kOff: every consumer rebuilds — embedding + objective per step.
    EXPECT_GT(cs.acquisitions, 0);
    EXPECT_EQ(cs.rebuilds, cs.acquisitions);
    EXPECT_EQ(cs.pattern_misses, cs.rebuilds - 1);
    EXPECT_EQ(cs.ordering_reuses, 0);
  }
  config.incremental = solver::IncrementalMode::kAuto;
  {
    SglLearner learner(m.voltages, config);
    for (int i = 0; i < 4 && !learner.converged(); ++i) learner.step();
    const solver::SolverContextStats& cs = learner.solver_context().stats();
    EXPECT_GT(cs.acquisitions, 0);
    EXPECT_LE(cs.rebuilds, cs.acquisitions);
    // Steps that add edges rebuild — but through the cached ordering.
    EXPECT_GT(cs.ordering_reuses, 0);
    EXPECT_EQ(cs.updates_applied, 0);
    EXPECT_EQ(cs.refactorizations, 0);
  }
}

// --- Learner properties beyond grids ------------------------------------
//
// Small members of every generator family the solver stack meets, learned
// with the exact engine under both incremental modes.

struct LearnFamily {
  const char* name;
  graph::Graph (*make)();
};

graph::Graph family_trimesh() {
  graph::TriMeshOptions options;
  options.nx = 18;
  options.ny = 16;
  options.weight_jitter = 3.0;
  options.seed = 5;
  return graph::make_triangulated_mesh(options).graph;
}

graph::Graph family_airfoil() {
  // The airfoil surrogate's elongated elliptical cut-out, at 1/16 scale.
  graph::TriMeshOptions options;
  options.nx = 20;
  options.ny = 16;
  options.holes = {{9.5, 7.5, 6.0, 2.2}};
  options.seed = 101;
  return graph::make_triangulated_mesh(options).graph;
}

graph::Graph family_crack() {
  // The crack surrogate's thin interior slit, at 1/32 scale.
  graph::TriMeshOptions options;
  options.nx = 22;
  options.ny = 14;
  options.holes = {{10.5, 6.5, 7.0, 0.6}};
  options.seed = 102;
  return graph::make_triangulated_mesh(options).graph;
}

graph::Graph family_random_geometric() {
  Rng rng(17);
  return graph::make_random_geometric(300, 0.13, rng).graph;
}

graph::Graph family_circuit_grid() {
  return graph::make_circuit_grid(18, 16, 440, 0.5, 5.0, 9).graph;
}

class LearnerFamilySweep : public ::testing::TestWithParam<LearnFamily> {};

TEST_P(LearnerFamilySweep, LearnsConnectedKnnSubgraphInBothModes) {
  const graph::Graph truth = GetParam().make();
  ASSERT_TRUE(graph::is_connected(truth));
  measure::MeasurementOptions moptions;
  moptions.num_measurements = 30;
  moptions.seed = 2021;
  const measure::Measurements m =
      measure::generate_measurements(truth, moptions);

  SglConfig config;
  config.embedding.engine = spectral::EmbeddingEngine::kExact;
  config.max_iterations = 40;
  const auto learn = [&](solver::IncrementalMode mode, Index threads) {
    config.incremental = mode;
    config.num_threads = threads;
    SglLearner learner(m.voltages, config);
    SglResult result = learner.run(&m.currents);
    const solver::SolverContextStats& cs = learner.solver_context().stats();
    // Every rebuild after the first replaces a solver of the same node
    // set: the node count never changes during a learn.
    EXPECT_GE(cs.rebuilds, 1);
    EXPECT_EQ(cs.rebuilds, cs.pattern_misses + 1);
    return result;
  };
  const SglResult automatic = learn(solver::IncrementalMode::kAuto, 1);
  const SglResult off = learn(solver::IncrementalMode::kOff, 1);

  for (const SglResult* r : {&automatic, &off}) {
    EXPECT_TRUE(graph::is_connected(r->learned));
    std::set<std::pair<Index, Index>> knn_pairs;
    for (const graph::Edge& e : r->knn_graph.edges())
      knn_pairs.insert(std::minmax(e.s, e.t));
    for (const graph::Edge& e : r->learned.edges())
      EXPECT_TRUE(knn_pairs.count(std::minmax(e.s, e.t)))
          << "learned edge " << e.s << "," << e.t << " is not a kNN edge";
  }
  EXPECT_EQ(automatic.converged, off.converged);
  EXPECT_EQ(automatic.exhausted, off.exhausted);

  const SglResult automatic4 = learn(solver::IncrementalMode::kAuto, 4);
  expect_same_graph_bitwise(automatic.learned, automatic4.learned);
  EXPECT_EQ(automatic.scale_factor, automatic4.scale_factor);
}

INSTANTIATE_TEST_SUITE_P(
    Families, LearnerFamilySweep,
    ::testing::Values(LearnFamily{"trimesh", &family_trimesh},
                      LearnFamily{"airfoil", &family_airfoil},
                      LearnFamily{"crack", &family_crack},
                      LearnFamily{"random_geometric", &family_random_geometric},
                      LearnFamily{"circuit_grid", &family_circuit_grid}),
    [](const ::testing::TestParamInfo<LearnFamily>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sgl::core
