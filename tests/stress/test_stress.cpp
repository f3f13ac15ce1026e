// Concurrency stress tests, designed to make latent data races fire
// under ThreadSanitizer (the ci-tsan leg runs these with a forced
// 4-worker pool; see DESIGN.md §7). Each test also asserts the bitwise
// determinism contract — concurrent results must equal the serial
// reference exactly — so the suite is a functional test everywhere and a
// race detector under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "knn/brute_force.hpp"
#include "knn/hnsw.hpp"
#include "la/multi_vector.hpp"
#include "solver/laplacian_solver.hpp"

namespace sgl {
namespace {

/// Oversubscription factor: more requested workers than any CI runner has
/// cores, so the pool's queue/wake machinery is contended for real.
constexpr Index kOversubscribedThreads = 16;

la::DenseMatrix random_points(Index n, Index dim, std::uint64_t seed) {
  Rng rng(seed);
  la::DenseMatrix x(n, dim);
  for (Index j = 0; j < dim; ++j)
    for (Index i = 0; i < n; ++i) x(i, j) = rng.normal();
  return x;
}

la::MultiVector random_rhs(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  la::MultiVector b(rows, cols);
  for (Index j = 0; j < cols; ++j)
    for (Real& v : b.col(j)) v = rng.normal();
  return b;
}

TEST(Stress, NestedParallelForUnderOversubscription) {
  // Nested regions degrade to serial on the owning worker; under
  // oversubscription every pool code path (enqueue, dynamic chunk
  // hand-out, nesting detection, completion notify) is contended.
  constexpr Index outer = 96;
  constexpr Index inner = 64;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::atomic<int>> hits(outer * inner);
    parallel::parallel_for(0, outer, kOversubscribedThreads, [&](Index o) {
      parallel::parallel_for(0, inner, kOversubscribedThreads, [&](Index i) {
        hits[static_cast<std::size_t>(o * inner + i)].fetch_add(
            1, std::memory_order_relaxed);
      });
    });
    for (Index i = 0; i < outer * inner; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "round " << round;
  }
}

TEST(Stress, ExceptionsInFlightUnderOversubscription) {
  // Several workers throw while others are still executing (some inside
  // nested regions). The first exception must surface on the caller, the
  // pool must survive, and the sync state (remaining-counter, error slot)
  // must not race — this is the test TSan watches most closely.
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(
        parallel::parallel_for(0, 256, kOversubscribedThreads, [&](Index i) {
          if (i % 3 == 0) {
            parallel::parallel_for(0, 32, kOversubscribedThreads, [&](Index j) {
              if (j == 31 && i % 9 == 0) throw std::runtime_error("nested");
            });
          }
          if (i % 5 == 0) throw std::runtime_error("outer");
        }),
        std::runtime_error);
    // The pool must be fully usable after the unwound region.
    std::atomic<Index> sum{0};
    parallel::parallel_for(0, 64, kOversubscribedThreads, [&](Index i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 64 * 63 / 2) << "round " << round;
  }
}

TEST(Stress, ConcurrentHnswQueriesMatchSerial) {
  // Many concurrent batched + single-point queries against one shared
  // index: knn_all's per-slot scratch and search_point's thread_local
  // scratch must never alias across workers.
  const la::DenseMatrix points = random_points(300, 8, 11);
  const knn::HnswIndex index(points);
  const knn::KnnResult reference = index.knn_all(5, 1);

  parallel::parallel_for(0, 12, kOversubscribedThreads, [&](Index task) {
    if (task % 2 == 0) {
      const knn::KnnResult got = index.knn_all(5);
      ASSERT_EQ(got.neighbor, reference.neighbor);
      ASSERT_EQ(got.distance_squared, reference.distance_squared);
    } else {
      const Index q = (task * 37) % index.num_points();
      const auto got = index.search_point(q, 5);
      ASSERT_EQ(to_index(got.size()), 5);
      for (const auto& [d2, node] : got) {
        ASSERT_NE(node, q);
        ASSERT_GE(d2, 0.0);
      }
    }
  });
}

TEST(Stress, ParallelHnswBuildUnderOversubscriptionThenQueries) {
  // Generation-parallel construction with far more requested workers
  // than cores: speculation workers read the frozen graph while the
  // orchestrator waits, then the committed graph is hammered with
  // concurrent queries. Under TSan this exercises the build's
  // speculation/commit boundary; everywhere it asserts the graph is the
  // serial one edge for edge.
  const la::DenseMatrix points = random_points(900, 6, 29);
  const knn::HnswIndex serial(points, {}, 1);
  const knn::KnnResult reference = serial.knn_all(4, 1);

  for (int round = 0; round < 3; ++round) {
    const knn::HnswIndex index(points, {}, kOversubscribedThreads);
    ASSERT_EQ(index.entry_point(), serial.entry_point()) << "round " << round;
    ASSERT_EQ(index.max_level(), serial.max_level()) << "round " << round;
    for (Index node = 0; node < 900; ++node)
      for (Index level = 0; level <= serial.level_of(node); ++level)
        ASSERT_EQ(index.links(node, level), serial.links(node, level))
            << "node " << node << " level " << level << " round " << round;

    parallel::parallel_for(0, 8, kOversubscribedThreads, [&](Index task) {
      if (task % 2 == 0) {
        const knn::KnnResult got = index.knn_all(4);
        ASSERT_EQ(got.neighbor, reference.neighbor);
        ASSERT_EQ(got.distance_squared, reference.distance_squared);
      } else {
        const Index q = (task * 53) % index.num_points();
        const auto got = index.search_point(q, 4);
        ASSERT_EQ(to_index(got.size()), 4);
      }
    });
  }
}

class StressSolverHammer
    : public ::testing::TestWithParam<solver::LaplacianMethod> {};

TEST_P(StressSolverHammer, ConcurrentApplyBlockAndStatsReads) {
  // One shared solver, hammered with concurrent apply()/apply_block()
  // calls interleaved with diagnostic reads (last_pcg_iterations,
  // pcg_block_stats) — the exact pattern that raced on the pre-mutex
  // relaxed stat counters. Results must be bitwise equal to the serial
  // reference, and every stats snapshot internally consistent.
  const graph::Graph g = graph::make_grid2d(12, 12).graph;
  solver::LaplacianSolverOptions options;
  options.method = GetParam();
  const solver::LaplacianPinvSolver solver(g, options);

  const Index n = g.num_nodes();
  constexpr Index kCols = 4;
  const la::MultiVector y = random_rhs(n, kCols, 23);
  const la::Vector y0(y.col(0).begin(), y.col(0).end());
  la::MultiVector reference(n, kCols);
  solver.apply_block(y.view(), reference.view(), 1);

  parallel::parallel_for(0, 16, kOversubscribedThreads, [&](Index task) {
    if (task % 4 == 3) {
      // Torn-snapshot detector: max over one solve's columns can never
      // exceed the same solve's total.
      const solver::PcgBlockStats stats = solver.pcg_block_stats();
      ASSERT_LE(stats.max_iterations, stats.total_iterations);
      ASSERT_LE(stats.converged_columns, std::max(stats.columns, Index{1}));
      ASSERT_GE(solver.last_pcg_iterations(), 0);
    } else if (task % 4 == 2) {
      const la::Vector x = solver.apply(y0);
      for (Index i = 0; i < n; ++i)
        ASSERT_EQ(x[static_cast<std::size_t>(i)], reference(i, 0));
    } else {
      la::MultiVector x(n, kCols);
      solver.apply_block(y.view(), x.view());
      for (Index j = 0; j < kCols; ++j)
        for (Index i = 0; i < n; ++i)
          ASSERT_EQ(x(i, j), reference(i, j)) << "col " << j;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Methods, StressSolverHammer,
    ::testing::Values(solver::LaplacianMethod::kCholesky,
                      solver::LaplacianMethod::kPcgAmg),
    [](const auto& info) {
      return std::string(info.param == solver::LaplacianMethod::kCholesky
                             ? "Cholesky"
                             : "PcgAmg");
    });

}  // namespace
}  // namespace sgl
