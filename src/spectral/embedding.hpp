// Spectral graph embedding (paper eq. 12): the scaled eigenvector subspace
//   Ur = [ u_2/√(λ_2 + 1/σ²), …, u_r/√(λ_r + 1/σ²) ]
// whose pairwise row distances approximate effective resistances
// (exactly, as r → N and σ² → ∞).
//
// Two engines produce that subspace behind one seam (DESIGN.md §6):
//   exact       — Lanczos on LaplacianPinvSolver applies (the original path;
//                 eigenvalues to solver accuracy, one factorization or PCG
//                 setup per embedding).
//   solver-free — SF-SGL (arXiv 2302.04384): smoothed random test vectors
//                 propagated down a coarsening hierarchy, one Rayleigh–Ritz
//                 projection at the finest level. No Lanczos, no PCG, no
//                 factorization on the hot path.
//   auto        — picks solver-free for large graphs, exact otherwise.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "eig/lanczos.hpp"
#include "graph/graph.hpp"
#include "la/dense_matrix.hpp"

namespace sgl::solver {
class SolverContext;
}  // namespace sgl::solver

namespace sgl::spectral {

/// Which implementation computes the embedding.
enum class EmbeddingEngine {
  kExact,       ///< Lanczos + LaplacianPinvSolver (paper eq. 12 verbatim).
  kSolverFree,  ///< SF-SGL multilevel smoothed test vectors + Rayleigh–Ritz.
  kAuto,        ///< solver-free when the graph is large, exact otherwise.
};

/// CLI name of the engine ("exact", "solver-free", "auto").
[[nodiscard]] const char* embedding_engine_name(EmbeddingEngine engine);

/// Strict inverse of embedding_engine_name; nullptr-free, nullopt on
/// unknown names (callers reject, they never default).
[[nodiscard]] std::optional<EmbeddingEngine> parse_embedding_engine(
    std::string_view name);

/// Comma-joined valid names for CLI error messages.
[[nodiscard]] std::string embedding_engine_name_list();

/// Graphs at or above this node count resolve `auto` to the solver-free
/// engine: by then a factorization/PCG setup per iteration dominates the
/// learning loop, and the multilevel proxy's accuracy (driven by the
/// spectral-ordering fidelity of the smoothed basis, not absolute
/// eigenvalue error) is already sufficient for edge ranking.
inline constexpr Index kAutoSolverFreeThreshold = 10000;

/// Knobs of the solver-free engine. All defaults follow SF-SGL practice:
/// a small oversampled test block, a handful of weighted-Jacobi sweeps per
/// level, and a coarsest graph small enough that the random block spans
/// its low spectrum.
struct SfEmbeddingOptions {
  /// Test vectors t (the Rayleigh–Ritz subspace dimension). 0 = auto:
  /// (r − 1) + 4 oversampling columns, clamped to the graph size.
  Index num_test_vectors = 0;
  /// Weighted-Jacobi sweeps applied per hierarchy level (plus once on the
  /// coarsest level).
  Index smoother_sweeps = 10;
  /// Jacobi damping ω; 2/3 is the classical optimum for Laplacian-like
  /// spectra.
  Real jacobi_weight = 2.0 / 3.0;
  /// Coarsening stops at or below this node count (raised internally if
  /// the test block would not fit).
  Index coarsest_size = 200;
  /// Seed of the whole engine: hierarchy matchings and the coarsest-level
  /// random block both derive from it.
  std::uint64_t seed = 12345;
  /// Threads for the block kernels: 0 = library default (SGL_NUM_THREADS /
  /// hardware), 1 = serial. Results are bit-identical for every value.
  Index num_threads = 0;
};

struct EmbeddingOptions {
  /// Number of eigenvectors r as in the paper: columns u_2 … u_r, so the
  /// embedding has r−1 dimensions.
  Index r = 5;
  Real sigma2 = 1e6;
  /// Engine selection; kAuto resolves per graph (kAutoSolverFreeThreshold).
  EmbeddingEngine engine = EmbeddingEngine::kAuto;
  eig::LanczosOptions lanczos;
  solver::LaplacianSolverOptions solver;
  SfEmbeddingOptions sf;
  /// Residual tolerance of the exact-engine eigensolve when it is
  /// warm-started from a SolverContext's stored eigenvector block
  /// (kAuto only; DESIGN.md §8). The warm subspace starts at
  /// a relative residual around the last few edges' perturbation (~1e-2)
  /// and the convergence rate is gap-limited, so polishing it to the cold
  /// `lanczos.tolerance` (1e-9) re-pays nearly the full cold cost; the
  /// learner only consumes the embedding through edge RANKINGS, which are
  /// quantized by the tie-resolution grid and already stable at 1e-3 —
  /// the same accuracy regime the paper's multilevel eigensolver targets.
  /// Cold solves (first iteration, kOff, null context) always use
  /// `lanczos.tolerance`. The effective tolerance is
  /// max(lanczos.tolerance, warm_refinement_tolerance), so a caller that
  /// asks for a LOOSER cold tolerance keeps it.
  Real warm_refinement_tolerance = 1e-3;
};

/// Resolves kAuto against the graph size; kExact/kSolverFree pass through.
[[nodiscard]] EmbeddingEngine resolve_embedding_engine(EmbeddingEngine engine,
                                                       Index num_nodes);

struct Embedding {
  la::Vector eigenvalues;  // λ_2 … λ_r (ascending; Ritz values for SF)
  la::DenseMatrix u;       // N × (r−1), column i scaled by 1/√(λ+1/σ²)
  /// Whether the eigensolver met its residual tolerance within the
  /// subspace cap. A false value means the embedding was built from the
  /// best available Ritz pairs; callers that need a guarantee should
  /// check this (SglLearner surfaces it per iteration). The solver-free
  /// engine always reports true — it is a fixed-work projection, not an
  /// iteration with a residual target.
  bool eig_converged = false;
  /// Basis dimension the eigensolver used (exact engine diagnostics).
  Index lanczos_steps = 0;
  /// Engine that actually ran (kAuto resolved; never kAuto here).
  EmbeddingEngine engine_used = EmbeddingEngine::kExact;
  /// Total weighted-Jacobi sweeps applied (solver-free engine; 0 for
  /// exact).
  Index smoother_sweeps = 0;
  /// Coarsening levels beneath the input graph (solver-free engine; 0 for
  /// exact).
  Index hierarchy_levels = 0;
};

/// Computes the embedding of a connected graph via the selected engine.
[[nodiscard]] Embedding compute_embedding(const graph::Graph& g,
                                          const EmbeddingOptions& options = {});

/// Context-aware overload (DESIGN.md §8): on the exact engine the
/// LaplacianPinvSolver comes from `context->acquire(g)` — warm or rebuilt
/// per the context's incremental mode — instead of a fresh construction,
/// and in kAuto the Lanczos run is warm-started from the context's stored
/// eigenvector block (the new block is stored back after the solve). A
/// null context, or a context in kOff mode, reproduces the plain overload
/// bitwise. The solver-free engine has no solver to share and ignores the
/// context.
[[nodiscard]] Embedding compute_embedding(const graph::Graph& g,
                                          const EmbeddingOptions& options,
                                          solver::SolverContext* context);

/// ‖Urᵀ(e_s − e_t)‖² — the z_emb term of the sensitivity (eq. 13).
[[nodiscard]] inline Real embedding_distance_squared(const la::DenseMatrix& u,
                                                     Index s, Index t) {
  return u.row_distance_squared(s, t);
}

}  // namespace sgl::spectral
