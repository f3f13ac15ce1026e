#include "spectral/embedding.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "common/enum_names.hpp"
#include "common/parallel.hpp"
#include "solver/solver_context.hpp"
#include "spectral/sf_embedding.hpp"

namespace sgl::spectral {
namespace {

constexpr std::array<common::EnumName<EmbeddingEngine>, 3> kEngineNames{{
    {EmbeddingEngine::kExact, "exact"},
    {EmbeddingEngine::kSolverFree, "solver-free"},
    {EmbeddingEngine::kAuto, "auto"},
}};

Embedding compute_exact_embedding(const graph::Graph& g,
                                  const EmbeddingOptions& options,
                                  solver::SolverContext* context) {
  const Index dims = std::min(options.r - 1, g.num_nodes() - 1);

  // The solver comes from the context when one is threaded through
  // (warm or rebuilt per its incremental mode); otherwise build fresh, as
  // the plain overload always did.
  std::optional<solver::LaplacianPinvSolver> local;
  if (context == nullptr) local.emplace(g, options.solver);
  const solver::LaplacianPinvSolver& pinv =
      context != nullptr ? context->acquire(g) : *local;

  eig::LanczosOptions lanczos = options.lanczos;
  if (context != nullptr && context->incremental()) {
    // Warm-start Lanczos from the previous iteration's eigenvectors: the
    // converged subspace enters the basis before the first operator
    // apply, and the solve refines it only to warm_refinement_tolerance
    // (the ranking-accuracy regime) instead of the cold tolerance — the
    // warm residual sits at the perturbation of the few new edges, and
    // polishing it further is gap-limited cold-cost work (DESIGN.md §8).
    const la::DenseMatrix& warm = context->warm_subspace();
    if (warm.rows() == g.num_nodes() && warm.cols() > 0) {
      lanczos.initial_block = la::view_of(warm);
      lanczos.tolerance =
          std::max(lanczos.tolerance, options.warm_refinement_tolerance);
    }
  }
  const eig::EigenPairs pairs =
      eig::smallest_laplacian_eigenpairs(pinv, dims, lanczos);
  if (context != nullptr && context->incremental())
    context->store_warm_subspace(pairs.eigenvectors);

  Embedding out;
  out.eigenvalues = pairs.eigenvalues;
  out.eig_converged = pairs.converged;
  out.lanczos_steps = pairs.lanczos_steps;
  out.engine_used = EmbeddingEngine::kExact;
  out.u = la::DenseMatrix(g.num_nodes(), dims);
  const Real inv_sigma2 = 1.0 / options.sigma2;
  // Column scaling is a block AXPY-style kernel: each column is scaled
  // independently, so the loop parallelizes without changing any value.
  parallel::parallel_for(0, dims, options.lanczos.num_threads, [&](Index c) {
    const Real scale =
        1.0 / std::sqrt(pairs.eigenvalues[static_cast<std::size_t>(c)] +
                        inv_sigma2);
    const auto src = pairs.eigenvectors.col(c);
    auto dst = out.u.col(c);
    for (Index i = 0; i < g.num_nodes(); ++i) dst[i] = scale * src[i];
  });
  return out;
}

}  // namespace

const char* embedding_engine_name(EmbeddingEngine engine) {
  return common::enum_name(kEngineNames, engine);
}

std::optional<EmbeddingEngine> parse_embedding_engine(std::string_view name) {
  return common::parse_enum(kEngineNames, name);
}

std::string embedding_engine_name_list() {
  return common::enum_name_list(kEngineNames);
}

EmbeddingEngine resolve_embedding_engine(EmbeddingEngine engine,
                                         Index num_nodes) {
  if (engine != EmbeddingEngine::kAuto) return engine;
  return num_nodes >= kAutoSolverFreeThreshold ? EmbeddingEngine::kSolverFree
                                               : EmbeddingEngine::kExact;
}

Embedding compute_embedding(const graph::Graph& g,
                            const EmbeddingOptions& options) {
  return compute_embedding(g, options, nullptr);
}

Embedding compute_embedding(const graph::Graph& g,
                            const EmbeddingOptions& options,
                            solver::SolverContext* context) {
  SGL_EXPECTS(options.r >= 2, "compute_embedding: r must be at least 2");
  SGL_EXPECTS(options.sigma2 > 0.0, "compute_embedding: sigma2 must be positive");
  const EmbeddingEngine engine =
      resolve_embedding_engine(options.engine, g.num_nodes());
  if (engine == EmbeddingEngine::kSolverFree)
    return compute_sf_embedding(g, options);
  return compute_exact_embedding(g, options, context);
}

}  // namespace sgl::spectral
