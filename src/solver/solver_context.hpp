// SolverContext: a reuse-or-rebuild cache for the solver of a changing
// graph (DESIGN.md §8).
//
// The SGL learner appends a handful of edges per iteration, yet every
// solver consumer (embedding, objective, edge scaling, resistance
// metrics) historically built its own LaplacianPinvSolver from scratch —
// 3–4 fresh factorizations per step. SolverContext owns ONE solver plus
// the graph::GraphKey it was built for, and `acquire()` reconciles it
// with the caller's current graph:
//
//   - same GraphKey          → hand back the warm solver (free);
//   - different node count   → fresh rebuild;
//   - anything else          → rebuild on the outgoing factor's cached
//                              fill-reducing ordering (Cholesky only);
//                              a fresh ordering is computed after
//                              kMaxOrderingReuses reuses in a row.
//
// Modes (CLI: `sgl_learn --incremental {auto,off}`):
//   kOff   — acquire() rebuilds unconditionally: exactly the historical
//            per-consumer cost and BITWISE the historical results.
//   kAuto  — the reuse-or-rebuild policy above, plus a warm-start slot
//            for the exact embedding's Lanczos run.
//
// Determinism contract (per mode, DESIGN.md §8): a factor on a reused
// ordering may differ in floating point from one on a freshly computed
// ordering, and a warm-started Lanczos run from a cold one, so kAuto runs
// only promise to equal OTHER kAuto runs — and they do, bitwise, for
// every thread count (every kernel underneath is thread-count
// invariant). kOff runs remain bitwise equal to the pre-context code
// paths.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "graph/fingerprint.hpp"
#include "graph/graph.hpp"
#include "la/dense_matrix.hpp"
#include "solver/laplacian_solver.hpp"

namespace sgl::solver {

enum class IncrementalMode {
  kAuto,  ///< reuse an unchanged graph's solver, rebuild on cached orderings
  kOff,   ///< rebuild on every acquire (historical behavior, bitwise)
};

/// CLI name of a mode ("auto", "off").
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
};

/// Lifetime counters of one context (CLI --verbose, tests).
struct SolverContextStats {
  Index acquisitions = 0;       ///< acquire() calls
  Index rebuilds = 0;           ///< full solver constructions
  /// Always 0: in-place factor maintenance is retired. Kept for report
  /// readers that still print it.
  Index refactorizations = 0;
  /// Always 0, like refactorizations.
  Index updates_applied = 0;
  /// Rebuilds that replaced a solver of the same node count (every
  /// rebuild but the first on a fixed node set).
  Index pattern_misses = 0;
  Index ordering_reuses = 0;    ///< rebuilds that reused the cached ordering
};

class SolverContext {
 public:
  /// Consecutive cached-ordering rebuilds after which kAuto computes a
  /// fresh ordering, shedding the fill drift of a pattern that keeps
  /// growing (DESIGN.md §8 has the measurement).
  static constexpr Index kMaxOrderingReuses = 16;

  explicit SolverContext(SolverContextOptions options = {});

  /// Returns a solver valid for the CURRENT state of `g`, reusing or
  /// rebuilding the warm one per the mode policy above. The reference
  /// stays valid until the next acquire()/invalidate().
  [[nodiscard]] const LaplacianPinvSolver& acquire(const graph::Graph& g);

  /// Drops the warm solver and all warm-start state; the next acquire()
  /// rebuilds from scratch.
  void invalidate();

  [[nodiscard]] IncrementalMode mode() const noexcept {
    return options_.mode;
  }
  /// True for the mode that reuses state across acquires (kAuto).
  [[nodiscard]] bool incremental() const noexcept {
    return options_.mode != IncrementalMode::kOff;
  }
  [[nodiscard]] const SolverContextOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const SolverContextStats& stats() const noexcept {
    return stats_;
  }
  /// The solver the last acquire() returned; nullptr before the first
  /// acquire and after invalidate().
  [[nodiscard]] const LaplacianPinvSolver* solver() const noexcept {
    return solver_.get();
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
  void rebuild(const graph::Graph& g, const graph::GraphKey& key);

  SolverContextOptions options_;
  std::unique_ptr<LaplacianPinvSolver> solver_;
  /// The graph state solver_ was built for.
  graph::GraphKey key_;
  SolverContextStats stats_;
  la::DenseMatrix warm_subspace_;
  /// Consecutive rebuilds that reused the cached ordering.
  Index ordering_reuses_in_a_row_ = 0;
};

}  // namespace sgl::solver
