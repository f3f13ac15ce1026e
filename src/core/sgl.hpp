// SGL: spectral graph learning from measurements (paper Algorithm 1).
//
// Given voltage measurements X ∈ R^{N×M} (and optionally the matching
// current excitations Y), SGL learns an ultra-sparse resistor network
// whose spectral-embedding distances encode the measurement distances:
//
//   1. build a kNN candidate graph Go over the rows of X
//      (weights w = M/‖X(s,:)−X(t,:)‖², eq. 15);
//   2. initialize the learned graph G as the maximum spanning tree of Go;
//   3. iterate: spectral embedding Ur of G (eq. 12) → edge sensitivities
//      s_st = ‖Urᵀe_st‖² − (1/M)‖Xᵀe_st‖² for off-tree candidates
//      (eq. 13) → include the top ⌈Nβ⌉ candidates with s_st > tol;
//   4. stop when smax < tol (the distortion certificate of §II-C);
//   5. spectral edge scaling against Y (eqs. 21–23).
//
// SglLearner exposes the loop step by step (for per-iteration objective
// tracking); learn_graph() is the one-shot convenience entry point.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "eig/lanczos.hpp"
#include "graph/graph.hpp"
#include "knn/knn_graph.hpp"
#include "la/dense_matrix.hpp"
#include "solver/laplacian_solver.hpp"
#include "solver/solver_context.hpp"
#include "spectral/embedding.hpp"

namespace sgl::core {

struct SglConfig {
  /// kNN parameter for the candidate graph (paper default k = 5).
  Index k = 5;
  /// Sensitivity tolerance (paper: iterations stop at smax < 1e-12).
  Real tolerance = 1e-12;
  /// Edge sampling ratio β: at most ⌈Nβ⌉ edges join per iteration.
  Real beta = 1e-3;
  Index max_iterations = 1000;
  /// Apply eq. 21–23 scaling in finalize() when currents are available.
  bool edge_scaling = true;
  /// Worker threads for the hot paths (kNN build, sensitivity scan, edge
  /// scaling solves): 0 = library default (SGL_NUM_THREADS/hardware),
  /// 1 = serial. Results are bit-identical for every thread count. A
  /// nonzero knn.num_threads takes precedence for the kNN stage.
  Index num_threads = 0;
  /// kNN backend/connectivity knobs (k above overrides knn.k).
  knn::KnnGraphOptions knn;
  /// Every per-iteration embedding knob in one place: the order r, the
  /// prior variance σ², the engine selection (exact / solver-free / auto)
  /// and the engine-specific options (lanczos + solver for exact, sf for
  /// solver-free). embedding.solver also serves the edge-scaling solves.
  /// Before this struct existed the r/sigma2/lanczos/solver knobs were
  /// duplicated here and copied field-by-field each iteration.
  spectral::EmbeddingOptions embedding;
  /// Incremental-relearning mode of the learner's SolverContext
  /// (DESIGN.md §8). kOff (the default) rebuilds every solver from
  /// scratch exactly as before this knob existed — bitwise-identical
  /// results. kAuto keeps the warm solver while the graph is unchanged,
  /// rebuilds on the cached fill-reducing ordering once edges are added,
  /// and warm-starts the exact engine's Lanczos from the previous
  /// iteration's eigenvectors. Determinism is per mode: a kAuto run is
  /// bitwise-reproducible across thread counts, but may differ from a
  /// kOff run in floating point. CLI: `sgl_learn --incremental {auto,off}`.
  solver::IncrementalMode incremental = solver::IncrementalMode::kOff;
  /// Optional per-iteration observer (progress logging in benches).
  std::function<void(Index iteration, Real smax, Index edges_added)> observer;
};

struct SglIterationStats {
  Index iteration = 0;      // 1-based
  Real smax = 0.0;          // max candidate sensitivity before additions
  Index edges_added = 0;
  Index total_edges = 0;    // learned-graph edges after this iteration
  double seconds = 0.0;     // wall time of this iteration
  /// The block eigensolver behind this iteration's embedding met its
  /// residual tolerance. False means the sensitivities were computed from
  /// the best available (unconverged) Ritz pairs — raise
  /// SglConfig::embedding.lanczos.max_subspace if this persists. Always
  /// true for the solver-free engine (fixed-work projection).
  bool eig_converged = true;
  /// Engine that computed this iteration's embedding (kAuto resolved).
  spectral::EmbeddingEngine engine = spectral::EmbeddingEngine::kExact;
  /// Total weighted-Jacobi sweeps of the solver-free engine (0 for exact).
  Index smoother_sweeps = 0;
  /// Coarsening levels of the solver-free hierarchy (0 for exact).
  Index hierarchy_levels = 0;
};

struct SglResult {
  graph::Graph learned;               // final learned graph
  graph::Graph knn_graph;             // candidate graph Go
  std::vector<Index> tree_edge_ids;   // MST edge ids into knn_graph
  std::vector<SglIterationStats> history;
  Index iterations = 0;
  /// The smax < tolerance distortion certificate was reached (§II-C).
  bool converged = false;
  /// The candidate pool drained before the certificate was reached: every
  /// off-tree kNN edge was added, yet final_smax may still exceed the
  /// tolerance. Distinct from `converged` — an exhausted run has no
  /// distortion guarantee (consider a larger k).
  bool exhausted = false;
  Real final_smax = 0.0;
  Real scale_factor = 1.0;            // eq. 23 factor (1 if not applied)
  double knn_seconds = 0.0;           // Step 1 (excluded from Fig. 11 runtime)
  double learn_seconds = 0.0;         // Steps 2–5
};

class SglLearner {
 public:
  /// Builds the candidate graph and the initial spanning tree (Step 1).
  SglLearner(const la::DenseMatrix& x, SglConfig config);

  /// Runs one SGL iteration (Steps 2–4). No-op once converged() or
  /// exhausted(). Returns the iteration's statistics.
  SglIterationStats step();

  /// smax fell below tolerance — the paper's distortion certificate.
  /// Candidate exhaustion does NOT imply convergence; check exhausted().
  [[nodiscard]] bool converged() const noexcept { return converged_; }
  /// All candidate edges have been added (possibly with smax ≥ tolerance).
  [[nodiscard]] bool exhausted() const noexcept { return candidates_.empty(); }
  [[nodiscard]] Index iteration() const noexcept { return iteration_; }
  [[nodiscard]] Real last_smax() const noexcept { return last_smax_; }
  [[nodiscard]] const graph::Graph& current_graph() const noexcept {
    return learned_;
  }
  [[nodiscard]] const graph::Graph& knn_graph() const noexcept { return knn_; }
  [[nodiscard]] const std::vector<SglIterationStats>& history() const noexcept {
    return history_;
  }

  /// Step 5 + result assembly. Pass the currents Y to enable edge scaling
  /// (nullptr skips it, as in the voltage-only reduced-network setting).
  [[nodiscard]] SglResult finalize(const la::DenseMatrix* y) const;

  /// Drives step() to convergence (or max_iterations), then finalizes.
  [[nodiscard]] SglResult run(const la::DenseMatrix* y);

  /// The learner's solver context (mode = SglConfig::incremental):
  /// rebuild/update/refactorization counters for diagnostics, and the
  /// warm solver for metric consumers that want to reuse it.
  [[nodiscard]] const solver::SolverContext& solver_context() const noexcept {
    return *context_;
  }
  [[nodiscard]] solver::SolverContext& solver_context() noexcept {
    return *context_;
  }

 private:
  struct Candidate {
    Index s = 0;
    Index t = 0;
    Real z_data = 0.0;  // ‖X(s,:)−X(t,:)‖² (clamped as in the kNN weights)
  };

  SglConfig config_;
  const la::DenseMatrix& x_;
  /// Warm solver state shared by every solver consumer of the loop
  /// (embedding, finalize scaling; DESIGN.md §8). Mutable because
  /// finalize() is const yet legitimately reuses/refreshes the cache —
  /// the classic mutable-cache case; results are independent of the
  /// cache state within a mode.
  mutable std::unique_ptr<solver::SolverContext> context_;
  graph::Graph knn_;
  graph::Graph learned_;
  std::vector<Index> tree_edge_ids_;
  std::vector<Candidate> candidates_;
  std::vector<SglIterationStats> history_;
  Index iteration_ = 0;
  Real last_smax_ = 0.0;
  bool converged_ = false;
  double knn_seconds_ = 0.0;
  double learn_seconds_ = 0.0;
};

/// One-shot SGL with measurement pair (X, Y): learns and scales.
[[nodiscard]] SglResult learn_graph(const la::DenseMatrix& x,
                                    const la::DenseMatrix& y,
                                    const SglConfig& config = {});

/// Voltage-only SGL (no scaling step), e.g. for reduced-network learning.
[[nodiscard]] SglResult learn_graph(const la::DenseMatrix& x,
                                    const SglConfig& config = {});

}  // namespace sgl::core
