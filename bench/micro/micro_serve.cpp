// Serving-layer microbenchmarks (DESIGN.md §10): resistance queries
// answered inline by the elimination-tree kernel
// (CholeskySolver::difference_energy), on the 192² mesh, 1 thread.
// BM_ServeBatchedResistance answers b queries with one
// effective_resistance_batch call; BM_ServePerQuery answers the same b
// queries as b effective_resistance calls.
// Identical bits either way; the delta is the per-request overhead (key
// lookup, cache hit, validation). Neither path enters the solve
// combiner, and batches_per_iter is the receipt: it must stay 0.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "sgl.hpp"

namespace {

using namespace sgl;

serve::ServeOptions bench_options() {
  serve::ServeOptions options;
  options.num_threads = 1;
  // The serving engine's whole point is the warm cached factorization, so
  // pin the direct method rather than letting kAuto route the 192² mesh
  // to AMG-PCG: the resistance kernel walks that factor's elimination
  // tree.
  options.solver.method = solver::LaplacianMethod::kCholesky;
  return options;
}

/// Queries per second, plus the combiner receipt (0 batches: resistance
/// queries are answered inline).
void report(benchmark::State& state, const serve::ServeEngine& engine,
            Index queries_per_iter) {
  state.SetItemsProcessed(state.iterations() * queries_per_iter);
  state.counters["batches_per_iter"] =
      static_cast<double>(engine.stats().batches) /
      static_cast<double>(state.iterations());
}

std::vector<std::pair<Index, Index>> probe_pairs(Index n, Index count) {
  // Spread source/sink pairs across the mesh so every column is a
  // distinct right-hand side.
  std::vector<std::pair<Index, Index>> pairs;
  for (Index i = 0; i < count; ++i) {
    pairs.emplace_back(i * (n / (2 * count) + 1), n - 1 - i * 3);
  }
  return pairs;
}

/// b resistance queries answered by one effective_resistance_batch.
void BM_ServeBatchedResistance(benchmark::State& state) {
  const Index b = static_cast<Index>(state.range(0));
  serve::ServeEngine engine(bench_options());
  (void)engine.load_graph(graph::make_grid2d(192, 192).graph);
  const auto pairs = probe_pairs(engine.active_num_nodes(), b);
  (void)engine.effective_resistance_batch(pairs);  // factorize outside the loop
  for (auto _ : state) {
    const std::vector<Real> values = engine.effective_resistance_batch(pairs);
    benchmark::DoNotOptimize(values.data());
  }
  report(state, engine, b);
}
BENCHMARK(BM_ServeBatchedResistance)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same b queries as b single requests.
void BM_ServePerQuery(benchmark::State& state) {
  const Index b = static_cast<Index>(state.range(0));
  serve::ServeEngine engine(bench_options());
  (void)engine.load_graph(graph::make_grid2d(192, 192).graph);
  const auto pairs = probe_pairs(engine.active_num_nodes(), b);
  (void)engine.effective_resistance_batch(pairs);  // factorize outside the loop
  for (auto _ : state) {
    for (const auto& [s, t] : pairs) {
      const Real value = engine.effective_resistance(s, t);
      benchmark::DoNotOptimize(value);
    }
  }
  report(state, engine, b);
}
BENCHMARK(BM_ServePerQuery)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
