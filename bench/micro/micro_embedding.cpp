// Embedding-engine microbenchmarks: the per-iteration embedding cost of
// the learning loop on the 192² mesh (36 864 nodes — the scale where the
// kAuto policy switches to the solver-free engine), exact vs solver-free,
// plus the solver-free engine on the graph shape the learning loop
// actually embeds (a near-tree at ≈1.04 edges/node).
// BM_Embedding and BM_SfSglEmbedding are the acceptance pair recorded in
// the repo-root BENCH_solver.json baseline; every BM_SfSgl* row is gated
// by the blocking bench leg in CI.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "spectral/embedding.hpp"

namespace {

using namespace sgl;

const graph::Graph& mesh192() {
  static const graph::Graph g = graph::make_grid2d(192, 192).graph;
  return g;
}

// Exact engine (Lanczos over the Laplacian pseudoinverse), single thread:
// the pre-redesign per-iteration embedding path, eq. 12 verbatim.
void BM_Embedding(benchmark::State& state) {
  const graph::Graph& g = mesh192();
  spectral::EmbeddingOptions options;
  options.r = 5;
  options.engine = spectral::EmbeddingEngine::kExact;
  options.lanczos.num_threads = 1;
  options.solver.num_threads = 1;
  for (auto _ : state) {
    const spectral::Embedding e = spectral::compute_embedding(g, options);
    benchmark::DoNotOptimize(e.u.data().data());
    state.counters["lanczos_steps"] = static_cast<double>(e.lanczos_steps);
  }
}
BENCHMARK(BM_Embedding)->Unit(benchmark::kMillisecond)->Iterations(2);

// Solver-free engine (SF-SGL multilevel smoothed test vectors), thread
// sweep. The Arg(1) row against BM_Embedding is the ≥3× per-iteration
// speedup acceptance of the engine redesign; results are bit-identical
// for every thread count, so the sweep measures scheduling only.
void BM_SfSglEmbedding(benchmark::State& state) {
  const graph::Graph& g = mesh192();
  spectral::EmbeddingOptions options;
  options.r = 5;
  options.engine = spectral::EmbeddingEngine::kSolverFree;
  options.sf.num_threads = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    const spectral::Embedding e = spectral::compute_embedding(g, options);
    benchmark::DoNotOptimize(e.u.data().data());
    state.counters["hierarchy_levels"] =
        static_cast<double>(e.hierarchy_levels);
    state.counters["smoother_sweeps"] = static_cast<double>(e.smoother_sweeps);
  }
}
BENCHMARK(BM_SfSglEmbedding)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

// A learned-graph shape: the maximum spanning tree of the 128² mesh plus
// 650 seeded extra edges (≈1.04 edges/node, what the SGL loop embeds on
// every iteration of the 128² benchmark input).
const graph::Graph& learned128() {
  static const graph::Graph g = [] {
    const graph::Graph mesh = graph::make_grid2d(128, 128).graph;
    graph::Graph tree = graph::subgraph_from_edges(
        mesh, graph::maximum_spanning_forest(mesh));
    Rng rng(2021);
    const Index n = tree.num_nodes();
    for (Index k = 0; k < 650; ++k) {
      const Index s = rng.uniform_int(n);
      const Index t = rng.uniform_int(n);
      if (s != t) tree.add_edge(s, t, rng.uniform(0.5, 2.0));
    }
    return tree;
  }();
  return g;
}

// Solver-free engine on the learned shape, 1 and 4 threads: coarse levels
// are tiny here, so this row is sensitive to per-level assembly and
// per-sweep dispatch costs that the mesh row hides.
void BM_SfSglEmbeddingLearned(benchmark::State& state) {
  const graph::Graph& g = learned128();
  spectral::EmbeddingOptions options;
  options.r = 5;
  options.engine = spectral::EmbeddingEngine::kSolverFree;
  options.sf.num_threads = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    const spectral::Embedding e = spectral::compute_embedding(g, options);
    benchmark::DoNotOptimize(e.u.data().data());
    state.counters["hierarchy_levels"] =
        static_cast<double>(e.hierarchy_levels);
  }
}
BENCHMARK(BM_SfSglEmbeddingLearned)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
