// Substrate microbenchmarks: sparse LDLᵀ across fill-reducing orderings
// and PCG with and without AMG — the two solver paths documented in
// DESIGN.md (direct factorization for ultra-sparse learned graphs, AMG-PCG
// as the fallback for factors too large to fit).
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "sgl.hpp"

namespace {

using namespace sgl;
using solver::grounded_laplacian;

la::CsrMatrix mesh_matrix(Index side) {
  return grounded_laplacian(graph::make_grid2d(side, side).graph);
}

/// Tree + 1% extra edges: the shape of an SGL iterate.
la::CsrMatrix ultra_sparse_matrix(Index side) {
  const graph::Graph mesh = graph::make_grid2d(side, side).graph;
  const auto tree_ids = graph::maximum_spanning_forest(mesh);
  graph::Graph g = graph::subgraph_from_edges(mesh, tree_ids);
  Rng rng(7);
  const Index extras = mesh.num_nodes() / 100 + 1;
  for (Index i = 0; i < extras; ++i) {
    const Index s = rng.uniform_int(mesh.num_nodes());
    const Index t = rng.uniform_int(mesh.num_nodes());
    if (s != t) g.add_edge(std::min(s, t), std::max(s, t), 1.0);
  }
  return grounded_laplacian(g);
}

void BM_CholeskyFactorMesh(benchmark::State& state) {
  const auto ordering = static_cast<solver::OrderingMethod>(state.range(0));
  const la::CsrMatrix a = mesh_matrix(64);
  Index fill = 0;
  for (auto _ : state) {
    const solver::CholeskySolver chol(a, ordering);
    fill = chol.stats().factor_nnz;
    benchmark::DoNotOptimize(fill);
  }
  state.counters["factor_nnz"] = static_cast<double>(fill);
}
BENCHMARK(BM_CholeskyFactorMesh)
    ->Arg(static_cast<int>(solver::OrderingMethod::kNatural))
    ->Arg(static_cast<int>(solver::OrderingMethod::kRcm))
    ->Arg(static_cast<int>(solver::OrderingMethod::kMinimumDegree))
    ->Arg(static_cast<int>(solver::OrderingMethod::kNestedDissection))
    ->Unit(benchmark::kMillisecond);

void BM_CholeskyFactorUltraSparse(benchmark::State& state) {
  const la::CsrMatrix a = ultra_sparse_matrix(static_cast<Index>(state.range(0)));
  Index fill = 0;
  for (auto _ : state) {
    const solver::CholeskySolver chol(a, solver::OrderingMethod::kMinimumDegree);
    fill = chol.stats().factor_nnz;
    benchmark::DoNotOptimize(fill);
  }
  state.counters["factor_nnz"] = static_cast<double>(fill);
  state.counters["n"] = static_cast<double>(a.rows());
}
BENCHMARK(BM_CholeskyFactorUltraSparse)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Ordering alone (no factorization) on the meshes a serve cache fill
// orders: quotient-graph AMD against level-set nested dissection.
void BM_OrderingGrid(benchmark::State& state) {
  const auto ordering = static_cast<solver::OrderingMethod>(state.range(0));
  const la::CsrMatrix a = mesh_matrix(static_cast<Index>(state.range(1)));
  std::vector<Index> perm;
  for (auto _ : state) {
    perm = solver::compute_ordering(a, ordering);
    benchmark::DoNotOptimize(perm.data());
  }
  state.counters["factor_nnz"] = static_cast<double>(
      solver::CholeskySolver(a, std::move(perm), 1).stats().factor_nnz);
}
BENCHMARK(BM_OrderingGrid)
    ->ArgsProduct({{static_cast<int>(solver::OrderingMethod::kMinimumDegree),
                    static_cast<int>(solver::OrderingMethod::kNestedDissection)},
                   {128, 256}})
    ->Unit(benchmark::kMillisecond);

// --- Supernodal dense-panel kernels vs the PR4 scalar path ------------
// Same 192² mesh, same nested-dissection ordering and level schedule;
// only the numeric kernel differs. Symbolic analysis runs once outside
// the loop and every iteration factors on it, so the timing isolates
// exactly the phase the panel kernels rewrote. The factors are bitwise-identical —
// the delta is pure arithmetic/layout.

void BM_FactorLevelScheduled(benchmark::State& state) {
  const la::CsrMatrix a = mesh_matrix(192);
  const Index threads = static_cast<Index>(state.range(0));
  const auto symbolic = std::make_shared<const solver::CholeskySymbolic>(
      a, solver::OrderingMethod::kNestedDissection);
  for (auto _ : state) {
    const solver::CholeskySolver factor(a, symbolic, threads,
                                        solver::FactorKernel::kScalar);
    benchmark::DoNotOptimize(factor.diagonal().data());
  }
  const solver::CholeskySolver chol(a, symbolic, threads,
                                    solver::FactorKernel::kScalar);
  state.counters["factor_nnz"] = static_cast<double>(chol.stats().factor_nnz);
}
BENCHMARK(BM_FactorLevelScheduled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_FactorSupernodal(benchmark::State& state) {
  const la::CsrMatrix a = mesh_matrix(192);
  const Index threads = static_cast<Index>(state.range(0));
  const auto symbolic = std::make_shared<const solver::CholeskySymbolic>(
      a, solver::OrderingMethod::kNestedDissection);
  for (auto _ : state) {
    const solver::CholeskySolver factor(a, symbolic, threads,
                                        solver::FactorKernel::kSupernodal);
    benchmark::DoNotOptimize(factor.diagonal().data());
  }
  const solver::CholeskySolver chol(a, symbolic, threads,
                                    solver::FactorKernel::kSupernodal);
  state.counters["factor_nnz"] = static_cast<double>(chol.stats().factor_nnz);
  state.counters["panel_columns"] =
      static_cast<double>(chol.stats().panel_columns);
  state.counters["panel_max_width"] =
      static_cast<double>(chol.stats().panel_max_width);
}
BENCHMARK(BM_FactorSupernodal)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SolveBlockPanel(benchmark::State& state) {
  // Block forward/backward sweeps on the 192² mesh factor: arg 0 picks
  // the kernel (0 = scalar entry-wise CSC gathers, 1 = contiguous panel
  // runs). Eight right-hand sides, one thread — the run-gather delta.
  const la::CsrMatrix a = mesh_matrix(192);
  const auto kernel = state.range(0) == 0 ? solver::FactorKernel::kScalar
                                          : solver::FactorKernel::kSupernodal;
  const solver::CholeskySolver chol(
      a, solver::OrderingMethod::kNestedDissection, 1, kernel);
  Rng rng(5);
  la::MultiVector b(a.rows(), 8);
  for (Index j = 0; j < 8; ++j)
    for (Real& v : b.col(j)) v = rng.normal();
  for (auto _ : state) {
    la::MultiVector x = chol.solve_block(b, 1);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SolveBlockPanel)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_CholeskySolveMesh(benchmark::State& state) {
  const la::CsrMatrix a = mesh_matrix(64);
  const solver::CholeskySolver chol(a, solver::OrderingMethod::kMinimumDegree);
  Rng rng(3);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    la::Vector x = chol.solve(b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_CholeskySolveMesh)->Unit(benchmark::kMicrosecond);

// Rows are registered by name, not by a numeric Arg, so no row can share
// a name with a committed baseline row of a retired preconditioner.
void BM_PcgMesh(benchmark::State& state, bool use_amg) {
  const la::CsrMatrix a = mesh_matrix(64);
  Rng rng(4);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();

  std::unique_ptr<solver::Preconditioner> m;
  if (use_amg) {
    m = std::make_unique<solver::AmgPreconditioner>(a);
  } else {
    m = std::make_unique<solver::IdentityPreconditioner>(a.rows());
  }
  Index iterations = 0;
  for (auto _ : state) {
    la::Vector x;
    const solver::PcgResult r = solver::pcg_solve(a, b, x, *m);
    iterations = r.iterations;
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["pcg_iterations"] = static_cast<double>(iterations);
}
BENCHMARK_CAPTURE(BM_PcgMesh, identity, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PcgMesh, amg, true)->Unit(benchmark::kMillisecond);

/// Block PCG over the preconditioner apply_block seam: one SpMM and one
/// block V-cycle per iteration for all b right-hand sides. Args: block
/// width b, threads. Compare with BM_PcgPerColumnAmg at the same b.
void BM_BlockPcgAmg(benchmark::State& state) {
  const Index b = static_cast<Index>(state.range(0));
  const Index threads = static_cast<Index>(state.range(1));
  const la::CsrMatrix a = mesh_matrix(192);
  const solver::AmgPreconditioner amg(a);
  Rng rng(6);
  la::MultiVector rhs(a.rows(), b);
  for (Index j = 0; j < b; ++j)
    for (Real& v : rhs.col(j)) v = rng.normal();
  solver::PcgOptions options;
  options.rel_tolerance = 1e-8;
  options.num_threads = threads;
  Index iterations = 0;
  for (auto _ : state) {
    la::MultiVector x(a.rows(), b);
    const solver::PcgBlockResult r =
        solver::pcg_solve_block(a, rhs.view(), x.view(), amg, options);
    iterations = r.max_iterations();
    benchmark::DoNotOptimize(x.data().data());
  }
  state.counters["pcg_iterations"] = static_cast<double>(iterations);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_BlockPcgAmg)
    ->ArgsProduct({{1, 4, 16}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The unbatched baseline: b sequential scalar PCG solves over the same
/// right-hand sides (b SpMVs and b V-cycles per iteration).
void BM_PcgPerColumnAmg(benchmark::State& state) {
  const Index b = static_cast<Index>(state.range(0));
  const la::CsrMatrix a = mesh_matrix(192);
  const solver::AmgPreconditioner amg(a);
  Rng rng(6);
  la::MultiVector rhs(a.rows(), b);
  for (Index j = 0; j < b; ++j)
    for (Real& v : rhs.col(j)) v = rng.normal();
  solver::PcgOptions options;
  options.rel_tolerance = 1e-8;
  options.num_threads = 1;
  Index iterations = 0;
  for (auto _ : state) {
    for (Index j = 0; j < b; ++j) {
      la::Vector bj(rhs.col(j).begin(), rhs.col(j).end());
      la::Vector x;
      const solver::PcgResult r = solver::pcg_solve(a, bj, x, amg, options);
      iterations = r.iterations;
      benchmark::DoNotOptimize(x.data());
    }
  }
  state.counters["pcg_iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_PcgPerColumnAmg)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_AmgSetup(benchmark::State& state) {
  const la::CsrMatrix a = mesh_matrix(static_cast<Index>(state.range(0)));
  double complexity = 0.0;
  for (auto _ : state) {
    const solver::AmgHierarchy h(a);
    complexity = h.operator_complexity();
    benchmark::DoNotOptimize(complexity);
  }
  state.counters["operator_complexity"] = complexity;
}
BENCHMARK(BM_AmgSetup)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_LaplacianPinvApply(benchmark::State& state,
                           solver::LaplacianMethod method) {
  const graph::Graph g = graph::make_grid2d(64, 64).graph;
  solver::LaplacianSolverOptions options;
  options.method = method;
  const solver::LaplacianPinvSolver pinv(g, options);
  Rng rng(5);
  la::Vector y(static_cast<std::size_t>(g.num_nodes()));
  for (auto& v : y) v = rng.normal();
  la::center(y);
  for (auto _ : state) {
    la::Vector x = pinv.apply(y);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK_CAPTURE(BM_LaplacianPinvApply, cholesky,
                  solver::LaplacianMethod::kCholesky)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LaplacianPinvApply, amg, solver::LaplacianMethod::kPcgAmg)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
