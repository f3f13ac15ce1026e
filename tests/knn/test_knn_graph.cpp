// Unit tests for kNN graph construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/sgl.hpp"
#include "graph/components.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "knn/knn_graph.hpp"
#include "measure/measurements.hpp"

namespace sgl::knn {
namespace {

la::DenseMatrix random_points(Index n, Index dim, std::uint64_t seed) {
  Rng rng(seed);
  la::DenseMatrix x(n, dim);
  for (Index j = 0; j < dim; ++j)
    for (Index i = 0; i < n; ++i) x(i, j) = rng.normal();
  return x;
}

TEST(KnnGraph, WeightsArePaperFormula) {
  // Colinear points 0, 1, 3 (distances² 1, 4, 9); with k = 1 the graph has
  // edges (0,1) and (1,3)… after symmetrization.
  la::DenseMatrix x(3, 2);
  x(0, 0) = 0.0; x(1, 0) = 1.0; x(2, 0) = 3.0;
  KnnGraphOptions options;
  options.k = 1;
  const graph::Graph g = build_knn_graph(x, options);
  const Real m = 2.0;  // number of measurement columns
  for (const graph::Edge& e : g.edges()) {
    const Real dist2 = x.row_distance_squared(e.s, e.t);
    EXPECT_NEAR(e.weight, m / dist2, 1e-12);
  }
}

TEST(KnnGraph, SymmetrizedUnionHasNoDuplicates) {
  const la::DenseMatrix x = random_points(60, 5, 2);
  KnnGraphOptions options;
  options.k = 4;
  const graph::Graph g = build_knn_graph(x, options);
  std::set<std::pair<Index, Index>> seen;
  for (const graph::Edge& e : g.edges()) {
    EXPECT_TRUE(seen.emplace(e.s, e.t).second) << "duplicate edge";
  }
}

TEST(KnnGraph, EdgeCountBounds) {
  // Union symmetrization: between N·k/2 (fully mutual) and N·k edges.
  const la::DenseMatrix x = random_points(100, 6, 3);
  KnnGraphOptions options;
  options.k = 5;
  options.ensure_connected = false;
  const graph::Graph g = build_knn_graph(x, options);
  EXPECT_GE(g.num_edges(), 100 * 5 / 2);
  EXPECT_LE(g.num_edges(), 100 * 5);
}

TEST(KnnGraph, EnsuresConnectivityAcrossBlobs) {
  // Two far-apart blobs with k small enough that the raw kNN graph is
  // disconnected; the builder must bridge them.
  Rng rng(5);
  la::DenseMatrix x(40, 2);
  for (Index i = 0; i < 20; ++i) {
    x(i, 0) = rng.normal() * 0.01;
    x(i, 1) = rng.normal() * 0.01;
  }
  for (Index i = 20; i < 40; ++i) {
    x(i, 0) = 100.0 + rng.normal() * 0.01;
    x(i, 1) = 100.0 + rng.normal() * 0.01;
  }
  KnnGraphOptions options;
  options.k = 3;
  options.ensure_connected = true;
  const graph::Graph g = build_knn_graph(x, options);
  EXPECT_TRUE(graph::is_connected(g));

  options.ensure_connected = false;
  const graph::Graph g2 = build_knn_graph(x, options);
  EXPECT_FALSE(graph::is_connected(g2));
}

TEST(KnnGraph, DuplicatePointsGetFiniteWeights) {
  la::DenseMatrix x(4, 2);
  // Rows 0 and 1 identical; rows 2, 3 distinct.
  x(2, 0) = 1.0;
  x(3, 0) = 2.0;
  KnnGraphOptions options;
  options.k = 2;
  const graph::Graph g = build_knn_graph(x, options);
  for (const graph::Edge& e : g.edges()) {
    EXPECT_TRUE(std::isfinite(e.weight));
    EXPECT_GT(e.weight, 0.0);
  }
}

TEST(KnnGraph, WeightsScaleWithData) {
  // Regression for the scale-dependent duplicate-point floor: rescaling
  // the measurements by c must rescale every weight by exactly 1/c² (the
  // floor used to go absolute for median ≪ 1, clamping every distance and
  // flattening all weights).
  const la::DenseMatrix x = random_points(80, 4, 11);
  la::DenseMatrix x_small(80, 4);
  const Real c = 1e-6;
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < 80; ++i) x_small(i, j) = c * x(i, j);

  KnnGraphOptions options;
  options.k = 4;
  const graph::Graph g = build_knn_graph(x, options);
  const graph::Graph g_small = build_knn_graph(x_small, options);

  ASSERT_EQ(g.num_edges(), g_small.num_edges());
  std::map<std::pair<Index, Index>, Real> weights;
  for (const graph::Edge& e : g.edges()) weights[{e.s, e.t}] = e.weight;
  bool weights_vary = false;
  Real first_weight = -1.0;
  for (const graph::Edge& e : g_small.edges()) {
    const auto it = weights.find({e.s, e.t});
    ASSERT_NE(it, weights.end()) << "edge set changed under rescaling";
    // w_small = M / (c²·d²) = w / c².
    EXPECT_NEAR(e.weight * c * c, it->second, 1e-9 * it->second);
    if (first_weight < 0.0) first_weight = e.weight;
    if (std::abs(e.weight - first_weight) > 1e-6 * first_weight)
      weights_vary = true;
  }
  // The old bug flattened all small-scale weights to M/floor; distinct
  // distances must keep distinct weights.
  EXPECT_TRUE(weights_vary);
}

TEST(KnnGraph, ConnectsThreeComponentsWithFlooredBridges) {
  // Three well-separated blobs, k small enough that kNN stays inside each
  // blob: the repair loop must add bridges until one component remains,
  // and each bridge weight must be M/max(d², floor) for the closest
  // cross-component pair.
  Rng rng(17);
  const Index per_blob = 8;
  la::DenseMatrix x(3 * per_blob, 2);
  for (Index b = 0; b < 3; ++b)
    for (Index i = 0; i < per_blob; ++i) {
      x(b * per_blob + i, 0) = 1000.0 * b + rng.normal() * 0.01;
      x(b * per_blob + i, 1) = rng.normal() * 0.01;
    }

  KnnGraphOptions options;
  options.k = 2;
  options.ensure_connected = false;
  const graph::Graph raw = build_knn_graph(x, options);
  ASSERT_GE(graph::connected_components(raw).count, 3);

  options.ensure_connected = true;
  const graph::Graph g = build_knn_graph(x, options);
  EXPECT_TRUE(graph::is_connected(g));
  // Exactly one bridge per extra component.
  EXPECT_EQ(g.num_edges(),
            raw.num_edges() + graph::connected_components(raw).count - 1);

  // Bridges span blobs; their weight is the un-floored paper formula here
  // (cross-blob distances are far above the duplicate floor).
  const Real m = 2.0;
  Index bridges = 0;
  for (const graph::Edge& e : g.edges()) {
    if (e.s / per_blob == e.t / per_blob) continue;
    ++bridges;
    const Real d2 = x.row_distance_squared(e.s, e.t);
    EXPECT_NEAR(e.weight, m / d2, 1e-9 * (m / d2));
  }
  EXPECT_EQ(bridges, graph::connected_components(raw).count - 1);

  // The learner must initialize on such data: spanning tree over all
  // 3·per_blob nodes.
  core::SglConfig config;
  config.k = 2;
  core::SglLearner learner(x, config);
  EXPECT_TRUE(graph::is_connected(learner.current_graph()));
  EXPECT_EQ(learner.current_graph().num_edges(), 3 * per_blob - 1);
}

TEST(KnnGraph, ThreadedBuildMatchesSerialBitForBit) {
  const la::DenseMatrix x = random_points(120, 5, 29);
  KnnGraphOptions serial_opts;
  serial_opts.k = 4;
  serial_opts.num_threads = 1;
  const graph::Graph serial = build_knn_graph(x, serial_opts);
  for (const Index threads : {2, 4}) {
    KnnGraphOptions opts = serial_opts;
    opts.num_threads = threads;
    const graph::Graph parallel = build_knn_graph(x, opts);
    ASSERT_EQ(parallel.num_edges(), serial.num_edges());
    for (Index e = 0; e < serial.num_edges(); ++e) {
      EXPECT_EQ(parallel.edge(e).s, serial.edge(e).s);
      EXPECT_EQ(parallel.edge(e).t, serial.edge(e).t);
      EXPECT_EQ(parallel.edge(e).weight, serial.edge(e).weight);
    }
  }
}

TEST(KnnGraph, BackendsAgreeOnExactRegime) {
  // With generous ef_search, HNSW matches brute force on small data; the
  // resulting graphs should be nearly identical.
  const la::DenseMatrix x = random_points(150, 4, 7);
  KnnGraphOptions brute;
  brute.k = 4;
  brute.backend = KnnBackend::kBruteForce;
  KnnGraphOptions hnsw;
  hnsw.k = 4;
  hnsw.backend = KnnBackend::kHnsw;
  hnsw.hnsw.ef_search = 150;
  const graph::Graph g1 = build_knn_graph(x, brute);
  const graph::Graph g2 = build_knn_graph(x, hnsw);
  const Real overlap =
      std::min(g1.num_edges(), g2.num_edges()) /
      static_cast<Real>(std::max(g1.num_edges(), g2.num_edges()));
  EXPECT_GE(overlap, 0.95);
}

/// Reference symmetrization: kNN hits merged through a std::map keyed by
/// (min, max) endpoints, smaller distance kept, edges added in map order;
/// median from a full sort.
graph::Graph map_symmetrized_reference(const la::DenseMatrix& x,
                                       const KnnGraphOptions& options) {
  const KnnResult knn =
      options.backend == KnnBackend::kBruteForce
          ? brute_force_knn(x, options.k, options.num_threads)
          : hnsw_knn(x, options.k, options.hnsw, options.num_threads);
  std::vector<Real> dists = knn.distance_squared;
  std::sort(dists.begin(), dists.end());
  const Real median = dists[dists.size() / 2];
  const Real floor2 =
      std::max(options.distance_floor_rel * median, Real{1e-300});
  std::map<std::pair<Index, Index>, Real> pair_dist;
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < knn.k; ++j) {
      const std::size_t at = static_cast<std::size_t>(i) * knn.k + j;
      const Index nb = knn.neighbor[at];
      if (nb == i || nb == kInvalidIndex) continue;
      const Real d = knn.distance_squared[at];
      const auto key = std::minmax(i, nb);
      auto [it, inserted] = pair_dist.try_emplace({key.first, key.second}, d);
      if (!inserted) it->second = std::min(it->second, d);
    }
  }
  graph::Graph g(x.rows());
  for (const auto& [key, d] : pair_dist)
    g.add_edge(key.first, key.second,
               static_cast<Real>(x.cols()) / std::max(d, floor2));
  return g;
}

TEST(KnnGraph, SortedSymmetrizationMatchesMapReference) {
  // Random points plus ten exact duplicates (zero distances, floored
  // weights): the sort+unique symmetrization must reproduce the map-built
  // graph edge for edge — same order, same endpoints, same weight bits.
  la::DenseMatrix x = random_points(300, 6, 43);
  for (Index i = 0; i < 10; ++i)
    for (Index j = 0; j < 6; ++j) x(290 + i, j) = x(3 * i, j);
  for (const KnnBackend backend :
       {KnnBackend::kBruteForce, KnnBackend::kHnsw}) {
    KnnGraphOptions options;
    options.k = 5;
    options.backend = backend;
    options.ensure_connected = false;
    const graph::Graph got = build_knn_graph(x, options);
    const graph::Graph ref = map_symmetrized_reference(x, options);
    ASSERT_EQ(got.num_edges(), ref.num_edges());
    for (Index e = 0; e < ref.num_edges(); ++e) {
      EXPECT_EQ(got.edge(e).s, ref.edge(e).s) << "edge " << e;
      EXPECT_EQ(got.edge(e).t, ref.edge(e).t) << "edge " << e;
      EXPECT_EQ(got.edge(e).weight, ref.edge(e).weight) << "edge " << e;
    }
    // The input must exercise both merge cases: pairs found from both
    // ends (fewer edges than hits) and pairs found from one end only
    // (more edges than N·k/2).
    EXPECT_LT(ref.num_edges(), 300 * 5);
    EXPECT_GT(ref.num_edges(), 300 * 5 / 2);
  }
}

/// Runs `fn`, which must throw a kInvalidArgument ContractViolation whose
/// message names `row`.
template <typename F>
void expect_rejects_row(F&& fn, Index row, const char* what) {
  try {
    fn();
    ADD_FAILURE() << what << ": no exception";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << what;
    EXPECT_NE(std::string(e.what()).find("row " + std::to_string(row)),
              std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(KnnGraph, RejectsNonFiniteAndOverflowingMeasurements) {
  // A 1e200 entry used to overflow its squared distances to inf, giving a
  // zero weight that failed deep in Graph::add_edge; nan and inf failed
  // the same way. The boundary check names the row instead, both for the
  // kNN builder and for the learner that calls it.
  const Real bad_values[] = {1e200, std::numeric_limits<Real>::quiet_NaN(),
                             std::numeric_limits<Real>::infinity(),
                             -std::numeric_limits<Real>::infinity()};
  for (const Real bad : bad_values) {
    la::DenseMatrix x = random_points(40, 4, 9);
    x(7, 2) = bad;
    x(31, 0) = bad;  // a later row must not be the one reported
    const std::string what = "value " + std::to_string(bad);
    expect_rejects_row([&] { (void)build_knn_graph(x, {}); }, 7,
                       what.c_str());
    expect_rejects_row([&] { core::SglLearner learner(x, core::SglConfig{}); },
                       7, what.c_str());
  }
}

TEST(KnnGraph, AcceptsLargeRepresentableMeasurements) {
  // Entries below 1e153, within a factor of ~3 of the limit
  // √(DBL_MAX / 16) ≈ 3.4e153: 4·M·max|x|² < 16·(1e153)² = 1.6e307 is
  // representable, so the data is valid and every weight stays finite and
  // positive.
  la::DenseMatrix x = random_points(40, 4, 9);
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < 40; ++i) x(i, j) *= 1e153 / 4.0;
  const graph::Graph g = build_knn_graph(x, {});
  EXPECT_TRUE(graph::is_connected(g));
  for (const graph::Edge& e : g.edges()) {
    EXPECT_TRUE(std::isfinite(e.weight));
    EXPECT_GT(e.weight, 0.0);
  }
}

TEST(KnnGraph, Contracts) {
  const la::DenseMatrix x = random_points(10, 2, 1);
  KnnGraphOptions options;
  options.k = 10;
  EXPECT_THROW(build_knn_graph(x, options), ContractViolation);
  options.k = 0;
  EXPECT_THROW(build_knn_graph(x, options), ContractViolation);
}

/// One generator family at one measurement count M.
struct FamilyCase {
  const char* family;
  Index measurements;
};

void PrintTo(const FamilyCase& c, std::ostream* os) {
  *os << c.family << " M=" << c.measurements;
}

graph::Graph family_graph(const std::string& family) {
  if (family == "grid") return graph::make_grid2d(64, 64).graph;
  if (family == "trimesh") {
    graph::TriMeshOptions options;
    options.nx = 64;
    options.ny = 64;
    options.weight_jitter = 2.0;
    return graph::make_triangulated_mesh(options).graph;
  }
  if (family == "airfoil") return graph::make_airfoil_surrogate().graph;
  if (family == "crack") return graph::make_crack_surrogate().graph;
  if (family == "random_geometric") {
    Rng rng(5);
    return graph::make_random_geometric(4000, 0.045, rng).graph;
  }
  SGL_EXPECTS(family == "circuit_grid", "family_graph: unknown family");
  return graph::make_circuit_grid(64, 64, 7800, 0.5, 5.0, 11).graph;
}

class KnnExactRecall : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(KnnExactRecall, HnswGraphKeyEqualsExactScan) {
  // Measurement data from every generator family: points inserted in
  // node order are spatial neighbors of the points just before them, so
  // a generation-batched HNSW build that searched only the frozen graph
  // lost true neighbors here (random points hide that). The HNSW kNN
  // graph at the default options must be the exact scan's, edge for
  // edge and weight for weight.
  const FamilyCase c = GetParam();
  measure::MeasurementOptions mopt;
  mopt.num_measurements = c.measurements;
  const la::DenseMatrix x =
      measure::generate_measurements(family_graph(c.family), mopt).voltages;
  ASSERT_GT(x.rows(), 512) << "below the batched-build threshold";

  KnnGraphOptions exact;
  exact.backend = KnnBackend::kBruteForce;
  KnnGraphOptions hnsw;
  hnsw.backend = KnnBackend::kHnsw;
  const graph::Graph g_exact = build_knn_graph(x, exact);
  const graph::Graph g_hnsw = build_knn_graph(x, hnsw);
  if (graph::graph_key(g_hnsw) == graph::graph_key(g_exact)) return;

  std::set<std::pair<Index, Index>> found;
  for (const graph::Edge& e : g_hnsw.edges()) found.insert({e.s, e.t});
  Index missing = 0;
  for (const graph::Edge& e : g_exact.edges())
    missing += found.count({e.s, e.t}) == 0 ? 1 : 0;
  ADD_FAILURE() << c.family << " M=" << c.measurements << ": " << missing
                << " of the exact scan's " << g_exact.num_edges()
                << " kNN edges missing, "
                << g_hnsw.num_edges() - (g_exact.num_edges() - missing)
                << " extra (none of either: a weight differs)";
}

std::vector<FamilyCase> family_cases() {
  std::vector<FamilyCase> cases;
  for (const char* family : {"grid", "trimesh", "airfoil", "crack",
                             "random_geometric", "circuit_grid"})
    for (const Index m : {20, 50, 100}) cases.push_back({family, m});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Families, KnnExactRecall, ::testing::ValuesIn(family_cases()),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return std::string(info.param.family) + "_M" +
             std::to_string(info.param.measurements);
    });

}  // namespace
}  // namespace sgl::knn
