// Serving-layer microbenchmarks (DESIGN.md §10): resistance queries
// answered inline by the elimination-tree kernel
// (CholeskySolver::difference_energy), on the 192² mesh, 1 thread.
// BM_ServeBatchedResistance answers b queries with one
// effective_resistance_batch call; BM_ServePerQuery answers the same b
// queries as b effective_resistance calls.
// Identical bits either way; the delta is the per-request overhead (key
// lookup, cache hit, validation). Neither path enters the solve
// combiner, and batches_per_iter is the receipt: it must stay 0.
//
// The write path, on the 128² grid at 1 thread: BM_ServeFill builds the
// solver a cache miss builds, either from scratch (fresh: ordering,
// symbolic analysis and numeric phase) or on the shared symbolic
// analysis of a same-pattern graph (shared_symbolic: numeric phase
// only). BM_LoadGraphParse answers a load_graph request line for a
// weight variant of that grid (parse with the flat edge read, edge
// checks, graph key, connectivity check).
#include <benchmark/benchmark.h>

#include <string>
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

/// The 128² grid with seeded weights in [0.5, 1.5): a weight variant of
/// the unit grid, same pattern.
graph::Graph grid_variant(std::uint64_t seed) {
  graph::Graph g = graph::make_grid2d(128, 128).graph;
  Rng rng(seed);
  for (Index e = 0; e < g.num_edges(); ++e) g.set_weight(e, rng.uniform(0.5, 1.5));
  return g;
}

/// A fresh solver, or one on a same-pattern solver's analysis.
void BM_ServeFill(benchmark::State& state, bool shared) {
  solver::LaplacianSolverOptions options = bench_options().solver;
  options.num_threads = 1;
  const solver::LaplacianPinvSolver first(grid_variant(1), options);
  const graph::Graph variant = grid_variant(2);
  for (auto _ : state) {
    const solver::LaplacianPinvSolver fill =
        shared ? solver::LaplacianPinvSolver(variant, options,
                                             first.cholesky_symbolic())
               : solver::LaplacianPinvSolver(variant, options);
    benchmark::DoNotOptimize(fill.factor_stats());
  }
}
BENCHMARK_CAPTURE(BM_ServeFill, fresh, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeFill, shared_symbolic, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_LoadGraphParse(benchmark::State& state) {
  const graph::Graph g = grid_variant(3);
  serve::JsonValue::Array edges;
  for (const graph::Edge& e : g.edges())
    edges.emplace_back(serve::JsonValue::Array{e.s, e.t, e.weight});
  serve::JsonValue root = serve::JsonValue(serve::JsonValue::Object{});
  root.set("op", "load_graph");
  root.set("num_nodes", g.num_nodes());
  root.set("edges", serve::JsonValue(std::move(edges)));
  const std::string line = serve::json_serialize(root);
  serve::ServeEngine engine(bench_options());
  for (auto _ : state) {
    const serve::ProtocolResult result = serve::handle_request(engine, line);
    benchmark::DoNotOptimize(result.response.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_LoadGraphParse)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
