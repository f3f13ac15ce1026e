// Unit tests for the solver-free (SF-SGL) embedding engine and the
// EmbeddingEngine seam: name table round-trips, the kAuto policy, Ritz
// quality against the exact engine, and the determinism contract
// (fixed-seed reproducibility, thread-count bit-identity), plus a
// bitwise pin of the fused smoother against the historical formulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "eig/dense_eig.hpp"
#include "graph/coarsening.hpp"
#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "la/multi_vector.hpp"
#include "spectral/embedding.hpp"
#include "spectral/sf_embedding.hpp"

namespace sgl::spectral {
namespace {

TEST(EmbeddingEngineNames, RoundTrip) {
  for (const EmbeddingEngine e :
       {EmbeddingEngine::kExact, EmbeddingEngine::kSolverFree,
        EmbeddingEngine::kAuto}) {
    const auto parsed = parse_embedding_engine(embedding_engine_name(e));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, e);
  }
}

TEST(EmbeddingEngineNames, UnknownNameIsRejected) {
  EXPECT_FALSE(parse_embedding_engine("lanczos").has_value());
  EXPECT_FALSE(parse_embedding_engine("").has_value());
  EXPECT_FALSE(parse_embedding_engine("Exact").has_value());  // case-sensitive
}

TEST(EmbeddingEngineNames, ListMentionsEveryEngine) {
  const std::string list = embedding_engine_name_list();
  EXPECT_NE(list.find("exact"), std::string::npos);
  EXPECT_NE(list.find("solver-free"), std::string::npos);
  EXPECT_NE(list.find("auto"), std::string::npos);
}

TEST(EmbeddingEngineSeam, ExplicitChoicesAreHonored) {
  EXPECT_EQ(resolve_embedding_engine(EmbeddingEngine::kExact, 1000000),
            EmbeddingEngine::kExact);
  EXPECT_EQ(resolve_embedding_engine(EmbeddingEngine::kSolverFree, 10),
            EmbeddingEngine::kSolverFree);
}

TEST(EmbeddingEngineSeam, AutoSwitchesAtThreshold) {
  EXPECT_EQ(resolve_embedding_engine(EmbeddingEngine::kAuto,
                                     kAutoSolverFreeThreshold - 1),
            EmbeddingEngine::kExact);
  EXPECT_EQ(
      resolve_embedding_engine(EmbeddingEngine::kAuto, kAutoSolverFreeThreshold),
      EmbeddingEngine::kSolverFree);
}

TEST(EmbeddingEngineSeam, DispatchReportsEngineUsed) {
  const graph::Graph g = graph::make_grid2d(8, 8).graph;
  EmbeddingOptions options;
  options.r = 4;

  options.engine = EmbeddingEngine::kExact;
  EXPECT_EQ(compute_embedding(g, options).engine_used,
            EmbeddingEngine::kExact);

  options.engine = EmbeddingEngine::kSolverFree;
  EXPECT_EQ(compute_embedding(g, options).engine_used,
            EmbeddingEngine::kSolverFree);

  // Small graph + kAuto resolves to the exact engine.
  options.engine = EmbeddingEngine::kAuto;
  EXPECT_EQ(compute_embedding(g, options).engine_used,
            EmbeddingEngine::kExact);
}

TEST(SfEmbedding, DimensionsFollowR) {
  const graph::Graph g = graph::make_grid2d(20, 20).graph;
  EmbeddingOptions options;
  options.r = 5;
  const Embedding e = compute_sf_embedding(g, options);
  EXPECT_EQ(e.u.rows(), 400);
  EXPECT_EQ(e.u.cols(), 4);  // u2..u5
  EXPECT_EQ(e.eigenvalues.size(), 4u);
  EXPECT_EQ(e.engine_used, EmbeddingEngine::kSolverFree);
  EXPECT_GT(e.hierarchy_levels, 0);
  EXPECT_GT(e.smoother_sweeps, 0);
  // The solver-free projection runs a fixed amount of work: there is no
  // iterative eigensolver that could fail to converge.
  EXPECT_TRUE(e.eig_converged);
  EXPECT_EQ(e.lanczos_steps, 0);
}

TEST(SfEmbedding, RIsCappedByGraphSize) {
  const graph::Graph g = graph::make_path(6);
  EmbeddingOptions options;
  options.r = 50;
  const Embedding e = compute_sf_embedding(g, options);
  EXPECT_EQ(e.u.cols(), 5);  // at most n−1 nontrivial pairs
  EXPECT_EQ(e.u.rows(), 6);
}

TEST(SfEmbedding, RitzValuesTrackExactEigenvalues) {
  // The probe measured ≤ 13% relative Ritz error on this grid with the
  // default smoothing budget; 50% leaves room for platform variation
  // while still catching a broken projection (errors would be O(1)).
  const graph::Graph g = graph::make_grid2d(20, 20).graph;
  EmbeddingOptions options;
  options.r = 5;
  options.engine = EmbeddingEngine::kExact;
  const Embedding exact = compute_embedding(g, options);
  const Embedding sf = compute_sf_embedding(g, options);
  ASSERT_EQ(sf.eigenvalues.size(), exact.eigenvalues.size());
  for (std::size_t i = 0; i < exact.eigenvalues.size(); ++i) {
    EXPECT_NEAR(sf.eigenvalues[i], exact.eigenvalues[i],
                0.5 * exact.eigenvalues[i])
        << "Ritz value " << i;
  }
}

TEST(SfEmbedding, EigenvaluesAscending) {
  const graph::Graph g = graph::make_grid2d(12, 9).graph;
  EmbeddingOptions options;
  options.r = 6;
  const Embedding e = compute_sf_embedding(g, options);
  for (std::size_t i = 1; i < e.eigenvalues.size(); ++i)
    EXPECT_LE(e.eigenvalues[i - 1], e.eigenvalues[i] + 1e-12);
}

TEST(SfEmbedding, FixedSeedIsBitwiseReproducible) {
  const graph::Graph g = graph::make_grid2d(15, 15).graph;
  EmbeddingOptions options;
  options.r = 5;
  const Embedding a = compute_sf_embedding(g, options);
  const Embedding b = compute_sf_embedding(g, options);
  EXPECT_EQ(a.u.data(), b.u.data());
  EXPECT_EQ(a.eigenvalues, b.eigenvalues);
}

TEST(SfEmbedding, SeedChangesTestVectors) {
  const graph::Graph g = graph::make_grid2d(15, 15).graph;
  EmbeddingOptions a;
  a.r = 5;
  EmbeddingOptions b = a;
  b.sf.seed = a.sf.seed + 1;
  EXPECT_NE(compute_sf_embedding(g, a).u.data(),
            compute_sf_embedding(g, b).u.data());
}

TEST(SfEmbedding, BitIdenticalAcrossThreadCounts) {
  // The determinism contract of the engine seam: at a fixed seed the
  // solver-free embedding is the same bit pattern for every thread count.
  const graph::Graph g = graph::make_grid2d(20, 20).graph;
  EmbeddingOptions base;
  base.r = 5;
  base.sf.num_threads = 1;
  const Embedding serial = compute_sf_embedding(g, base);
  for (const Index threads : {2, 4, 8}) {
    EmbeddingOptions options = base;
    options.sf.num_threads = threads;
    const Embedding e = compute_sf_embedding(g, options);
    EXPECT_EQ(serial.u.data(), e.u.data()) << threads << " threads";
    EXPECT_EQ(serial.eigenvalues, e.eigenvalues) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Bitwise pin: compute_sf_embedding against an in-test copy of the
// historical formulation. That formulation assembled each level's
// Laplacian through from_triplets on every smoothing call, ran each
// Jacobi sweep as one la::spmm plus a separate column update, and
// assembled the finest Laplacian again for Rayleigh–Ritz. The library's
// fused per-level pass must reproduce it bit for bit.

la::CsrMatrix historical_laplacian(const graph::Graph& g) {
  std::vector<la::Triplet> triplets;
  for (const graph::Edge& e : g.edges()) {
    triplets.push_back({e.s, e.s, e.weight});
    triplets.push_back({e.t, e.t, e.weight});
    triplets.push_back({e.s, e.t, -e.weight});
    triplets.push_back({e.t, e.s, -e.weight});
  }
  for (Index i = 0; i < g.num_nodes(); ++i) triplets.push_back({i, i, 0.0});
  return la::CsrMatrix::from_triplets(g.num_nodes(), g.num_nodes(), triplets);
}

void historical_jacobi(const graph::Graph& g, la::MultiVector& x,
                       const SfEmbeddingOptions& sf) {
  const la::CsrMatrix lap = historical_laplacian(g);
  const la::Vector deg = g.weighted_degrees();
  la::MultiVector work(x.rows(), x.cols());
  for (Index sweep = 0; sweep < sf.smoother_sweeps; ++sweep) {
    la::spmm(lap, x.view(), work.view(), 1);
    for (Index c = 0; c < x.cols(); ++c) {
      auto xc = x.col(c);
      const auto wc = work.col(c);
      for (Index i = 0; i < x.rows(); ++i) {
        const Real d = deg[static_cast<std::size_t>(i)];
        if (d > 0.0) xc[i] -= sf.jacobi_weight * wc[i] / d;
      }
    }
  }
}

void historical_orthonormalize(la::MultiVector& x) {
  la::center_columns(x.view(), 1);
  for (Index j = 0; j < x.cols(); ++j) {
    auto xj = x.col(j);
    for (Index i = 0; i < j; ++i) {
      const auto xi = x.col(i);
      Real dot = 0.0;
      for (Index row = 0; row < x.rows(); ++row) dot += xi[row] * xj[row];
      for (Index row = 0; row < x.rows(); ++row) xj[row] -= dot * xi[row];
    }
    Real norm2 = 0.0;
    for (Index row = 0; row < x.rows(); ++row) norm2 += xj[row] * xj[row];
    const Real inv = 1.0 / std::sqrt(norm2);
    for (Index row = 0; row < x.rows(); ++row) xj[row] *= inv;
  }
}

Embedding historical_sf_embedding(const graph::Graph& g,
                                  const EmbeddingOptions& options) {
  const SfEmbeddingOptions& sf = options.sf;
  const Index n = g.num_nodes();
  const Index dims = std::min(options.r - 1, n - 1);
  const Index requested =
      sf.num_test_vectors > 0 ? sf.num_test_vectors : dims + 4;
  const Index t = std::min(std::max(requested, dims), n - 1);
  graph::CoarseningHierarchy hierarchy = graph::build_coarsening_hierarchy(
      g, std::max(sf.coarsest_size, t + 1), sf.seed);
  while (!hierarchy.levels.empty() &&
         hierarchy.levels.back().graph.num_nodes() < t + 1)
    hierarchy.levels.pop_back();

  const graph::Graph& coarsest = hierarchy.coarsest(g);
  Rng rng(sf.seed ^ 0x9e3779b97f4a7c15ull);
  la::MultiVector x(coarsest.num_nodes(), t);
  for (Real& v : x.data()) v = rng.normal();
  historical_jacobi(coarsest, x, sf);
  historical_orthonormalize(x);
  for (std::size_t k = hierarchy.levels.size(); k-- > 0;) {
    const graph::Graph& fine = (k == 0) ? g : hierarchy.levels[k - 1].graph;
    la::MultiVector fine_x(fine.num_nodes(), t);
    la::gather_rows(x.view(), hierarchy.levels[k].fine_to_coarse,
                    fine_x.view(), 1);
    x = std::move(fine_x);
    historical_jacobi(fine, x, sf);
    historical_orthonormalize(x);
  }

  const la::CsrMatrix lap = historical_laplacian(g);
  la::MultiVector work(n, t);
  la::spmm(lap, x.view(), work.view(), 1);
  la::DenseMatrix t_mat = la::block_inner(x.view(), work.view(), 1);
  for (Index j = 0; j < t; ++j)
    for (Index i = 0; i < j; ++i) {
      const Real avg = 0.5 * (t_mat(i, j) + t_mat(j, i));
      t_mat(i, j) = avg;
      t_mat(j, i) = avg;
    }
  const eig::DenseEigResult ritz = eig::dense_symmetric_eig(t_mat);

  Embedding out;
  out.eigenvalues.assign(ritz.eigenvalues.begin(),
                         ritz.eigenvalues.begin() + dims);
  la::DenseMatrix y_dims(t, dims);
  for (Index j = 0; j < dims; ++j)
    for (Index i = 0; i < t; ++i) y_dims(i, j) = ritz.eigenvectors(i, j);
  out.u = la::DenseMatrix(n, dims);
  auto u_view = la::view_of(out.u);
  la::block_product(x.view(), y_dims, u_view, 1);
  for (Index c = 0; c < dims; ++c) {
    const Real theta =
        std::max(out.eigenvalues[static_cast<std::size_t>(c)], Real{0});
    const Real scale = 1.0 / std::sqrt(theta + 1.0 / options.sigma2);
    auto col = out.u.col(c);
    for (Index i = 0; i < n; ++i) col[i] *= scale;
  }
  return out;
}

/// A graph family for the pin, seeded weights where they make the
/// summation order observable.
struct PinCase {
  std::string name;
  graph::Graph (*make)();

  friend void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }
};

graph::Graph pin_grid() { return graph::make_grid2d(96, 96).graph; }

// The SGL iterate shape: a spanning tree of a grid plus seeded extras.
graph::Graph pin_near_tree() {
  const graph::Graph mesh = graph::make_grid2d(96, 96).graph;
  graph::Graph g =
      graph::subgraph_from_edges(mesh, graph::maximum_spanning_forest(mesh));
  Rng rng(7);
  for (Index k = 0; k < 400; ++k) {
    const Index s = rng.uniform_int(g.num_nodes());
    const Index t = rng.uniform_int(g.num_nodes());
    if (s != t) g.add_edge(s, t, rng.uniform(0.5, 2.0));
  }
  return g;
}

// A weighted 400-leaf star: one hub row far past the introsort threshold.
// Matching coarsens a star one leaf per level, so it stays small.
graph::Graph pin_star() {
  graph::Graph g(401);
  Rng rng(3);
  for (Index leaf = 1; leaf < g.num_nodes(); ++leaf)
    g.add_edge(0, leaf, rng.uniform(0.1, 10.0));
  return g;
}

// Two weighted 40-cliques joined by a 30-edge path.
graph::Graph pin_barbell() {
  constexpr Index k = 40;
  constexpr Index bridge = 30;
  const Index b0 = k + bridge - 1;
  graph::Graph g(b0 + k);
  Rng rng(5);
  for (const Index base : {Index{0}, b0})
    for (Index i = 0; i < k; ++i)
      for (Index j = i + 1; j < k; ++j)
        g.add_edge(base + i, base + j, rng.uniform(0.5, 2.0));
  for (Index i = k - 1; i < b0; ++i) g.add_edge(i, i + 1, 1.0);
  return g;
}

graph::Graph pin_circuit() {
  return graph::make_circuit_grid(80, 80, 11000, 1e-2, 1e2, 13).graph;
}

class SfEmbeddingPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(SfEmbeddingPin, MatchesHistoricalFormulationBitwise) {
  const graph::Graph g = GetParam().make();
  // t = 8 runs the full-width tile only; 5 and 12 reach the 4/2/1 tails.
  for (const Index t : {8, 5, 12}) {
    EmbeddingOptions options;
    options.r = 5;
    options.sf.num_test_vectors = t;
    const Embedding want = historical_sf_embedding(g, options);
    for (const Index threads : {1, 2, 4}) {
      SCOPED_TRACE("t=" + std::to_string(t) +
                   " threads=" + std::to_string(threads));
      options.sf.num_threads = threads;
      const Embedding got = compute_sf_embedding(g, options);
      ASSERT_EQ(got.u.rows(), want.u.rows());
      ASSERT_EQ(got.u.cols(), want.u.cols());
      ASSERT_EQ(got.eigenvalues.size(), want.eigenvalues.size());
      EXPECT_EQ(std::memcmp(got.u.data().data(), want.u.data().data(),
                            got.u.data().size() * sizeof(Real)),
                0);
      EXPECT_EQ(std::memcmp(got.eigenvalues.data(), want.eigenvalues.data(),
                            got.eigenvalues.size() * sizeof(Real)),
                0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, SfEmbeddingPin,
    ::testing::Values(PinCase{"grid", pin_grid},
                      PinCase{"near_tree", pin_near_tree},
                      PinCase{"star", pin_star},
                      PinCase{"barbell", pin_barbell},
                      PinCase{"circuit", pin_circuit}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return info.param.name;
    });

TEST(SfEmbedding, SmootherBudgetIsConfigurable) {
  const graph::Graph g = graph::make_grid2d(14, 14).graph;
  EmbeddingOptions options;
  options.r = 4;
  options.sf.smoother_sweeps = 3;
  const Embedding light = compute_sf_embedding(g, options);
  options.sf.smoother_sweeps = 12;
  const Embedding heavy = compute_sf_embedding(g, options);
  EXPECT_GT(heavy.smoother_sweeps, light.smoother_sweeps);
  EXPECT_EQ(heavy.hierarchy_levels, light.hierarchy_levels);
}

TEST(SfEmbedding, Contracts) {
  const graph::Graph g = graph::make_grid2d(6, 6).graph;
  {
    EmbeddingOptions options;
    options.r = 1;
    EXPECT_THROW((void)compute_sf_embedding(g, options), ContractViolation);
  }
  {
    EmbeddingOptions options;
    options.sigma2 = 0.0;
    EXPECT_THROW((void)compute_sf_embedding(g, options), ContractViolation);
  }
  {
    EmbeddingOptions options;
    options.sf.smoother_sweeps = 0;
    EXPECT_THROW((void)compute_sf_embedding(g, options), ContractViolation);
  }
  {
    EmbeddingOptions options;
    options.sf.jacobi_weight = 1.5;
    EXPECT_THROW((void)compute_sf_embedding(g, options), ContractViolation);
  }
  {
    EmbeddingOptions options;
    options.sf.coarsest_size = 1;
    EXPECT_THROW((void)compute_sf_embedding(g, options), ContractViolation);
  }
}

}  // namespace
}  // namespace sgl::spectral
