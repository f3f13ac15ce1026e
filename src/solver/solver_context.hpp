// SolverContext: a warm factorization that tracks a changing graph
// (DESIGN.md §8).
//
// The SGL learner appends a handful of edges per iteration, yet every
// solver consumer (embedding, objective, edge scaling, resistance
// metrics) historically built its own LaplacianPinvSolver from scratch —
// 3–4 fresh factorizations per step. SolverContext owns ONE solver plus
// the graph version it was built for, and `acquire()` reconciles it with
// the caller's current graph:
//
//   - unchanged graph        → hand back the warm solver (free);
//   - appended edges         → rank-1 update_edge per edge when the stamps
//                              stay inside the analyzed factor pattern
//                              (Cholesky method only);
//   - weights-only change    → numeric refactorization with the KEPT
//                              symbolic analysis (Cholesky), or a matrix
//                              refresh that reuses the preconditioner
//                              setup (PCG — same pattern, so the
//                              setup is still a valid approximate
//                              inverse);
//   - anything else          → full rebuild.
//
// Modes (CLI: `sgl_learn --incremental {auto,on,off}`):
//   kOff   — acquire() rebuilds unconditionally: exactly the historical
//            per-consumer cost and BITWISE the historical results.
//   kOn    — always update in place; numeric renumeration only when a
//            weights-only change forces it.
//   kAuto  — like kOn, plus a refactorization policy: after
//            max_updates_between_refactor accumulated updates, or once the
//            accumulated |Δw| exceeds growth_refactor_threshold × the
//            base edge weight mass, the factor is renumerated to shed
//            accumulated rounding (an updated factor drifts from a fresh
//            one at rounding scale per update).
//
// Determinism contract (per mode, DESIGN.md §8): an updated factor may
// differ from a fresh factorization of the same matrix in floating point,
// so incremental runs only promise to equal OTHER incremental runs — and
// they do, bitwise, for every thread count (the update path is serial,
// and every bulk kernel underneath is thread-count invariant). kOff runs
// remain bitwise equal to the pre-context code paths.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "la/dense_matrix.hpp"
#include "solver/laplacian_solver.hpp"

namespace sgl::solver {

enum class IncrementalMode {
  kAuto,  ///< incremental with a periodic refactorization safety net
  kOn,    ///< always incremental; renumerate only on weights-only changes
  kOff,   ///< rebuild on every acquire (historical behavior, bitwise)
};

/// CLI name of a mode ("auto", "on", "off").
[[nodiscard]] const char* incremental_mode_name(IncrementalMode mode);

/// Strict inverse of incremental_mode_name; nullopt on unknown names.
[[nodiscard]] std::optional<IncrementalMode> parse_incremental_mode(
    std::string_view name);

/// Comma-joined valid names for CLI error messages.
[[nodiscard]] std::string incremental_mode_name_list();

struct SolverContextOptions {
  IncrementalMode mode = IncrementalMode::kOff;
  /// Options for the owned LaplacianPinvSolver (method, ordering, threads).
  LaplacianSolverOptions solver;
  /// kAuto: renumerate after this many rank-1 updates since the last
  /// full/numeric factorization.
  Index max_updates_between_refactor = 64;
  /// kAuto: renumerate once the accumulated |Δw| of applied updates
  /// exceeds this fraction of the total edge weight mass at the last
  /// factorization (conditioning guard for weight-heavy update streams).
  Real growth_refactor_threshold = 0.5;
  /// Incremental modes: a rebuild forced by a pattern miss reuses the
  /// outgoing factor's fill-reducing permutation instead of re-running the
  /// ordering heuristic (the dominant rebuild cost on near-tree graphs —
  /// a permutation computed a few edges ago is still a good fill
  /// reducer). In kAuto a fresh ordering is computed after this many
  /// consecutive reuses, shedding fill drift as the pattern grows; kOn
  /// reuses without limit.
  Index max_ordering_reuses = 16;
};

/// Lifetime counters of one context (CLI --verbose, tests).
struct SolverContextStats {
  Index acquisitions = 0;       ///< acquire() calls
  Index rebuilds = 0;           ///< full solver constructions
  Index refactorizations = 0;   ///< numeric-only renumerations / refreshes
  Index updates_applied = 0;    ///< rank-1 edge updates applied in place
  Index pattern_misses = 0;     ///< rebuilds forced by out-of-pattern edges
  Index ordering_reuses = 0;    ///< rebuilds that reused the cached ordering
};

class SolverContext {
 public:
  explicit SolverContext(SolverContextOptions options = {});

  /// Returns a solver valid for the CURRENT state of `g`, reusing or
  /// incrementally updating the warm one per the mode policy above. The
  /// reference stays valid until the next acquire()/invalidate(). Graphs
  /// are tracked by their append-only edge list: the context fingerprints
  /// the known edge prefix, so it recognizes "edges appended" and
  /// "weights rescaled" without storing the graph.
  [[nodiscard]] const LaplacianPinvSolver& acquire(const graph::Graph& g);

  /// Drops the warm solver and all warm-start state; the next acquire()
  /// rebuilds from scratch.
  void invalidate();

  [[nodiscard]] IncrementalMode mode() const noexcept {
    return options_.mode;
  }
  /// True for the modes that reuse state across acquires (kOn / kAuto).
  [[nodiscard]] bool incremental() const noexcept {
    return options_.mode != IncrementalMode::kOff;
  }
  [[nodiscard]] const SolverContextOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const SolverContextStats& stats() const noexcept {
    return stats_;
  }

  /// Warm-start subspace slot for the consumers' eigensolver: the exact
  /// embedding stores its converged eigenvector block here and seeds the
  /// next iteration's Lanczos start block from it
  /// (eig::LanczosOptions::initial_block). Empty until the first store;
  /// always empty in kOff (store_warm_subspace is a no-op there, keeping
  /// kOff bitwise-historical).
  [[nodiscard]] const la::DenseMatrix& warm_subspace() const noexcept {
    return warm_subspace_;
  }
  void store_warm_subspace(la::DenseMatrix basis);

 private:
  /// Tries to reconcile the warm solver with `g` in place (updates /
  /// renumeration). False ⇒ caller must rebuild.
  bool try_incremental_reuse(const graph::Graph& g);
  void rebuild(const graph::Graph& g);
  /// Renumerates the warm solver for the current graph and resets the
  /// kAuto accumulators.
  void refactorize(const graph::Graph& g);

  SolverContextOptions options_;
  std::unique_ptr<LaplacianPinvSolver> solver_;
  SolverContextStats stats_;
  la::DenseMatrix warm_subspace_;

  // Graph version: how much of the (append-only) edge list the warm
  // solver reflects, with FNV-1a fingerprints to detect in-place changes
  // of that prefix — endpoints only (pattern identity) and endpoints +
  // weight bits (numeric identity).
  Index known_nodes_ = 0;
  std::size_t known_edges_ = 0;
  std::uint64_t endpoint_fingerprint_ = 0;
  std::uint64_t weight_fingerprint_ = 0;

  // kAuto refactorization accumulators (since the last rebuild /
  // renumeration).
  Index updates_since_refactor_ = 0;
  Real accumulated_update_weight_ = 0.0;
  Real base_weight_mass_ = 0.0;
  /// Consecutive rebuilds that reused the cached ordering (kAuto policy).
  Index ordering_reuses_in_a_row_ = 0;
};

}  // namespace sgl::solver
