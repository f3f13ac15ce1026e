// kNN microbenchmarks: exact scan vs HNSW build/query — the Step-1
// scalability ablation (the paper leans on HNSW [8] for large N).
#include <benchmark/benchmark.h>

#include <set>
#include <utility>

#include "sgl.hpp"

namespace {

using namespace sgl;

la::DenseMatrix random_points(Index n, Index dim, std::uint64_t seed) {
  Rng rng(seed);
  la::DenseMatrix x(n, dim);
  for (Index j = 0; j < dim; ++j)
    for (Index i = 0; i < n; ++i) x(i, j) = rng.normal();
  return x;
}

void BM_PointDistance(benchmark::State& state) {
  // The fixed-lane distance kernel every kNN path runs (brute force, HNSW
  // build and search, connectivity repair). Dims: 20 (short rows), 100
  // (the end-to-end benchmark's measurement count: 12 full 8-lane blocks
  // and a 4-dim tail) and 101 (a 5-dim tail). Pairs walk a 1024-point
  // set, so the rows stay cache-resident as in a beam search.
  const Index dim = static_cast<Index>(state.range(0));
  constexpr Index kPoints = 1024;
  const std::vector<Real> data =
      knn::to_row_major(random_points(kPoints, dim, 11));
  Index a = 0;
  for (auto _ : state) {
    for (Index b = 0; b < kPoints; ++b)
      benchmark::DoNotOptimize(knn::point_distance_squared(data, dim, a, b));
    a = (a + 1) % kPoints;
  }
  state.SetItemsProcessed(state.iterations() * kPoints);
}
BENCHMARK(BM_PointDistance)->Arg(20)->Arg(100)->Arg(101);

void BM_BruteForceKnn(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const la::DenseMatrix x = random_points(n, 50, 3);
  for (auto _ : state) {
    const knn::KnnResult r = knn::brute_force_knn(x, 5);
    benchmark::DoNotOptimize(r.neighbor.data());
  }
}
BENCHMARK(BM_BruteForceKnn)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_HnswBuildAndQueryAll(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const la::DenseMatrix x = random_points(n, 50, 3);
  for (auto _ : state) {
    const knn::KnnResult r = knn::hnsw_knn(x, 5);
    benchmark::DoNotOptimize(r.neighbor.data());
  }
}
BENCHMARK(BM_HnswBuildAndQueryAll)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

void BM_HnswBuildParallel(benchmark::State& state) {
  // Index construction alone (no queries) at the bench's thread count.
  // The generation-batched build produces the identical graph at every
  // arg, so this measures pure scheduling/speedup; Arg(1) IS the serial
  // baseline the ≥2×@4-threads acceptance gate compares against.
  const Index threads = static_cast<Index>(state.range(0));
  const la::DenseMatrix x = random_points(4096, 50, 3);
  Index committed = 0;
  for (auto _ : state) {
    const knn::HnswIndex index(x, {}, threads);
    committed = index.build_stats().committed_speculative;
    benchmark::DoNotOptimize(index.entry_point());
  }
  state.counters["batched_inserts"] = static_cast<double>(committed);
}
BENCHMARK(BM_HnswBuildParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_KnnGraphBuild(benchmark::State& state) {
  // End-to-end Step 1 (neighbor search + symmetrize + connectivity).
  const Index n = static_cast<Index>(state.range(0));
  const la::DenseMatrix x = random_points(n, 50, 5);
  for (auto _ : state) {
    const graph::Graph g = knn::build_knn_graph(x, {});
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_KnnGraphBuild)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_KnnGraphBuildGridMeasurements(benchmark::State& state) {
  // Step 1 on the end-to-end benchmark's input: M = 100 voltage
  // measurements of the 128² grid (N = 16384, so kAuto takes the HNSW
  // path). Mesh measurements are inserted in node order, so consecutive
  // points are spatial neighbors — the input that random points miss.
  // `missing_edges` counts the exact scan's kNN edges the graph lacks;
  // the scan runs once, outside the timed loop.
  static const la::DenseMatrix x = [] {
    measure::MeasurementOptions options;
    options.num_measurements = 100;
    options.seed = 1;
    return measure::generate_measurements(graph::make_grid2d(128, 128).graph,
                                          options)
        .voltages;
  }();
  static const graph::Graph exact = [] {
    knn::KnnGraphOptions options;
    options.backend = knn::KnnBackend::kBruteForce;
    return knn::build_knn_graph(x, options);
  }();
  graph::Graph g;
  for (auto _ : state) {
    g = knn::build_knn_graph(x, {});
    benchmark::DoNotOptimize(g.num_edges());
  }
  std::set<std::pair<Index, Index>> found;
  for (const graph::Edge& e : g.edges()) found.insert({e.s, e.t});
  Index missing = 0;
  for (const graph::Edge& e : exact.edges())
    missing += found.count({e.s, e.t}) == 0 ? 1 : 0;
  state.counters["missing_edges"] = static_cast<double>(missing);
}
BENCHMARK(BM_KnnGraphBuildGridMeasurements)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BruteForceKnnThreaded(benchmark::State& state) {
  // Thread-scaling of the exact scan at the N ≥ 4096 regime (wall-clock:
  // the work happens on pool threads, so real time is the honest metric).
  // The result is bit-identical to the serial scan for every thread count.
  const Index threads = static_cast<Index>(state.range(0));
  const Index n = 4096;
  const la::DenseMatrix x = random_points(n, 50, 3);
  for (auto _ : state) {
    const knn::KnnResult r = knn::brute_force_knn(x, 5, threads);
    benchmark::DoNotOptimize(r.neighbor.data());
  }
}
BENCHMARK(BM_BruteForceKnnThreaded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_HnswKnnAllThreaded(benchmark::State& state) {
  // Batched HNSW queries with per-worker search scratch; construction
  // (serial, seeded) is excluded via a shared one-time index.
  const Index threads = static_cast<Index>(state.range(0));
  static const la::DenseMatrix x = random_points(8192, 50, 7);
  static const knn::HnswIndex index(x);
  for (auto _ : state) {
    const knn::KnnResult r = index.knn_all(5, threads);
    benchmark::DoNotOptimize(r.neighbor.data());
  }
}
BENCHMARK(BM_HnswKnnAllThreaded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_HnswQueryOnly(benchmark::State& state) {
  const Index n = 8192;
  const la::DenseMatrix x = random_points(n, 50, 7);
  const knn::HnswIndex index(x);
  Index q = 0;
  for (auto _ : state) {
    const auto found = index.search_point(q, 5);
    benchmark::DoNotOptimize(found.data());
    q = (q + 1) % n;
  }
}
BENCHMARK(BM_HnswQueryOnly)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
