// Unit tests for the HNSW approximate nearest-neighbor index.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "knn/brute_force.hpp"
#include "knn/hnsw.hpp"
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

/// Fraction of true k-nearest neighbors recovered by the index.
Real recall(const KnnResult& exact, const KnnResult& approx) {
  SGL_EXPECTS(exact.k == approx.k, "recall: k mismatch");
  const Index n = exact.num_points();
  Index hits = 0;
  for (Index i = 0; i < n; ++i) {
    for (Index a = 0; a < approx.k; ++a) {
      const Index cand = approx.neighbor[static_cast<std::size_t>(i) * approx.k + a];
      for (Index e = 0; e < exact.k; ++e) {
        if (exact.neighbor[static_cast<std::size_t>(i) * exact.k + e] == cand) {
          ++hits;
          break;
        }
      }
    }
  }
  return static_cast<Real>(hits) / static_cast<Real>(n * exact.k);
}

TEST(Hnsw, PerfectRecallOnTinySet) {
  const la::DenseMatrix x = random_points(30, 4, 1);
  const KnnResult exact = brute_force_knn(x, 3);
  const KnnResult approx = hnsw_knn(x, 3);
  EXPECT_GE(recall(exact, approx), 0.99);
}

class HnswRecallSweep
    : public ::testing::TestWithParam<std::tuple<Index, Index>> {};

TEST_P(HnswRecallSweep, HighRecallOnRandomData) {
  const auto [n, dim] = GetParam();
  const la::DenseMatrix x = random_points(n, dim, 7);
  const KnnResult exact = brute_force_knn(x, 5);
  HnswOptions options;
  options.ef_search = 96;
  const KnnResult approx = hnsw_knn(x, 5, options);
  EXPECT_GE(recall(exact, approx), 0.9) << "n=" << n << " dim=" << dim;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, HnswRecallSweep,
    ::testing::Values(std::tuple<Index, Index>{200, 3},
                      std::tuple<Index, Index>{500, 10},
                      std::tuple<Index, Index>{1000, 25},
                      std::tuple<Index, Index>{1500, 50}));

TEST(Hnsw, DeterministicGivenSeed) {
  const la::DenseMatrix x = random_points(300, 6, 3);
  const KnnResult a = hnsw_knn(x, 4);
  const KnnResult b = hnsw_knn(x, 4);
  EXPECT_EQ(a.neighbor, b.neighbor);
  EXPECT_EQ(a.distance_squared, b.distance_squared);
}

TEST(Hnsw, SearchExcludesSelf) {
  const la::DenseMatrix x = random_points(100, 5, 9);
  const HnswIndex index(x);
  for (Index q = 0; q < 100; q += 7) {
    for (const auto& [d, node] : index.search_point(q, 5)) {
      EXPECT_NE(node, q);
      EXPECT_GE(d, 0.0);
    }
  }
}

TEST(Hnsw, ResultsSortedByDistance) {
  const la::DenseMatrix x = random_points(200, 8, 11);
  const HnswIndex index(x);
  const auto found = index.search_point(0, 10);
  for (std::size_t i = 1; i < found.size(); ++i)
    EXPECT_LE(found[i - 1].first, found[i].first);
}

TEST(Hnsw, ContractsOnBadOptions) {
  const la::DenseMatrix x = random_points(10, 2, 1);
  HnswOptions options;
  options.max_connections = 1;
  EXPECT_THROW(HnswIndex(x, options), ContractViolation);
  options.max_connections = 16;
  options.ef_construction = 4;
  EXPECT_THROW(HnswIndex(x, options), ContractViolation);
}

TEST(Hnsw, KnnAllThreadedMatchesSerialBitForBit) {
  // Index construction is serial; batched queries are read-only with
  // per-worker scratch, so every thread count must return exactly the
  // serial answer.
  const la::DenseMatrix x = random_points(400, 8, 17);
  const HnswIndex index(x);
  const KnnResult serial = index.knn_all(4, 1);
  for (const Index threads : {2, 4, 8}) {
    const KnnResult parallel = index.knn_all(4, threads);
    EXPECT_EQ(parallel.neighbor, serial.neighbor) << "threads=" << threads;
    EXPECT_EQ(parallel.distance_squared, serial.distance_squared)
        << "threads=" << threads;
  }
}

TEST(Hnsw, SearchPointMatchesScratchFreePath) {
  // The public search_point (fresh scratch per call) and knn_all (reused
  // per-worker scratch) must agree query by query.
  const la::DenseMatrix x = random_points(150, 5, 23);
  const HnswIndex index(x);
  const KnnResult batch = index.knn_all(3, 4);
  for (Index q = 0; q < 150; q += 11) {
    const auto found = index.search_point(q, 3);
    ASSERT_EQ(found.size(), 3u);
    for (Index j = 0; j < 3; ++j) {
      EXPECT_EQ(batch.neighbor[static_cast<std::size_t>(q) * 3 + j],
                found[static_cast<std::size_t>(j)].second);
      EXPECT_EQ(batch.distance_squared[static_cast<std::size_t>(q) * 3 + j],
                found[static_cast<std::size_t>(j)].first);
    }
  }
}

TEST(Hnsw, KnnAllHandlesAllDuplicatePoints) {
  // Pathological input: every point coincides, so all distances are zero
  // and search results can run short. Regression for the unsigned
  // found.size() - 1 underflow in knn_all's fill loop.
  la::DenseMatrix x(20, 3);
  for (Index i = 0; i < 20; ++i)
    for (Index j = 0; j < 3; ++j) x(i, j) = 4.2;
  const KnnResult r = hnsw_knn(x, 3);
  ASSERT_EQ(r.num_points(), 20);
  for (Index i = 0; i < 20; ++i) {
    for (Index j = 0; j < 3; ++j) {
      const Index nb = r.neighbor[static_cast<std::size_t>(i) * 3 + j];
      EXPECT_NE(nb, kInvalidIndex);
      EXPECT_NE(nb, i);
      EXPECT_DOUBLE_EQ(r.distance_squared[static_cast<std::size_t>(i) * 3 + j],
                       0.0);
    }
  }
}

TEST(Hnsw, ParallelBuildMatchesSerialEdgeForEdge) {
  // The generation-parallel build must produce the EXACT serial graph —
  // entry point, max level, per-node levels, and every adjacency list in
  // order — for every thread count (DESIGN.md §9). N is above the serial
  // build threshold so the generation machinery actually engages. Dims 13
  // and 100 run the distance kernel's tail lanes and the benchmark's
  // measurement count.
  for (const Index dim : {8, 13, 100}) {
    const la::DenseMatrix x = random_points(1200, dim, 31);
    const HnswIndex serial(x, {}, 1);
    for (const Index threads : {2, 4, 8}) {
      const HnswIndex parallel(x, {}, threads);
      EXPECT_EQ(parallel.entry_point(), serial.entry_point())
          << "dim=" << dim << " threads=" << threads;
      ASSERT_EQ(parallel.max_level(), serial.max_level())
          << "dim=" << dim << " threads=" << threads;
      for (Index node = 0; node < 1200; ++node) {
        ASSERT_EQ(parallel.level_of(node), serial.level_of(node))
            << "dim=" << dim << " node=" << node << " threads=" << threads;
        for (Index level = 0; level <= serial.level_of(node); ++level) {
          EXPECT_EQ(parallel.links(node, level), serial.links(node, level))
              << "dim=" << dim << " node=" << node << " level=" << level
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(Hnsw, ParallelBuildMatchesSerialEdgeForEdgeOnMeshMeasurements) {
  // Mesh measurements in node order: consecutive points are spatial
  // neighbors, so most nodes link to earlier members of their own
  // generation. Those member candidates depend only on the generation
  // schedule, so the graph must still be the serial one at every
  // thread count.
  graph::TriMeshOptions mesh;
  mesh.nx = 40;
  mesh.ny = 40;
  measure::MeasurementOptions mopt;
  mopt.num_measurements = 20;
  const la::DenseMatrix x =
      measure::generate_measurements(graph::make_triangulated_mesh(mesh).graph,
                                     mopt)
          .voltages;
  const Index n = x.rows();
  const HnswIndex serial(x, {}, 1);
  for (const Index threads : {2, 4, 8}) {
    const HnswIndex parallel(x, {}, threads);
    EXPECT_EQ(parallel.entry_point(), serial.entry_point());
    ASSERT_EQ(parallel.max_level(), serial.max_level());
    for (Index node = 0; node < n; ++node) {
      ASSERT_EQ(parallel.level_of(node), serial.level_of(node));
      for (Index level = 0; level <= serial.level_of(node); ++level)
        EXPECT_EQ(parallel.links(node, level), serial.links(node, level))
            << "node=" << node << " level=" << level
            << " threads=" << threads;
    }
  }
}

TEST(Hnsw, ParallelBuildActuallySpeculates) {
  // Guard against the parallel path silently degrading to per-node
  // serial fallbacks: on a non-trivial build most speculations must
  // survive validation and commit.
  const la::DenseMatrix x = random_points(1024, 6, 41);
  const HnswIndex index(x, {}, 4);
  const HnswBuildStats& stats = index.build_stats();
  EXPECT_GT(stats.num_generations, 0);
  EXPECT_GT(stats.committed_speculative, 0);
  EXPECT_GT(stats.committed_speculative, stats.fallback_serial);
}

TEST(Hnsw, ParallelBuildQueriesMatchSerialBuild) {
  // End-to-end: the full hnsw_knn pipeline (parallel build + parallel
  // queries) returns the serial pipeline's bytes.
  const la::DenseMatrix x = random_points(800, 10, 53);
  const KnnResult serial = hnsw_knn(x, 5, {}, 1);
  const KnnResult parallel = hnsw_knn(x, 5, {}, 4);
  EXPECT_EQ(parallel.neighbor, serial.neighbor);
  EXPECT_EQ(parallel.distance_squared, serial.distance_squared);
}

TEST(Hnsw, SmallBuildIgnoresThreadCount) {
  // Below the serial threshold the build is serial regardless of the
  // requested workers; the graph must still be the canonical one.
  const la::DenseMatrix x = random_points(96, 4, 67);
  const HnswIndex serial(x, {}, 1);
  const HnswIndex parallel(x, {}, 8);
  EXPECT_EQ(parallel.entry_point(), serial.entry_point());
  EXPECT_EQ(parallel.max_level(), serial.max_level());
  for (Index node = 0; node < 96; ++node)
    for (Index level = 0; level <= serial.level_of(node); ++level)
      EXPECT_EQ(parallel.links(node, level), serial.links(node, level));
}

TEST(Hnsw, ClusterStructurePreserved) {
  // Two well-separated Gaussian blobs: every neighbor must stay within the
  // query's own blob.
  Rng rng(13);
  const Index per_blob = 100;
  la::DenseMatrix x(2 * per_blob, 3);
  for (Index i = 0; i < per_blob; ++i)
    for (Index j = 0; j < 3; ++j) x(i, j) = rng.normal() * 0.1;
  for (Index i = per_blob; i < 2 * per_blob; ++i)
    for (Index j = 0; j < 3; ++j) x(i, j) = 50.0 + rng.normal() * 0.1;
  const KnnResult r = hnsw_knn(x, 5);
  for (Index i = 0; i < 2 * per_blob; ++i) {
    const bool first_blob = i < per_blob;
    for (Index j = 0; j < 5; ++j) {
      const Index nb = r.neighbor[static_cast<std::size_t>(i) * 5 + j];
      EXPECT_EQ(nb < per_blob, first_blob) << "cross-blob neighbor";
    }
  }
}

}  // namespace
}  // namespace sgl::knn
