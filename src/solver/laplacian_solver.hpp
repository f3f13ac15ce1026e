// Exact application of the Laplacian pseudo-inverse L⁺.
//
// For a connected graph, grounding one node makes the reduced system SPD;
// solving the grounded system and re-centering the result gives exactly
// L⁺y whenever the right-hand side is orthogonal to the all-ones vector —
// the situation everywhere in SGL (current vectors sum to zero, e_s − e_t
// probes, Lanczos iterates). This facade hides the grounding bookkeeping
// and picks between a direct LDLᵀ factorization and AMG-preconditioned
// PCG (the fallback for graphs whose factor is too large), mirroring how
// a circuit simulator grounds a node of the admittance matrix.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "graph/graph.hpp"
#include "la/multi_vector.hpp"
#include "solver/amg.hpp"
#include "solver/cholesky.hpp"
#include "solver/pcg.hpp"

namespace sgl::solver {

enum class LaplacianMethod {
  kCholesky,
  kPcgAmg,
  /// Cholesky for small or ultra-sparse graphs, PCG-AMG for large meshes.
  kAuto,
};

/// Reduced Laplacian of `g` with the `ground` row/column deleted (node
/// i > ground maps to i − 1) — SPD for connected graphs. The exact matrix
/// LaplacianPinvSolver factors; exported so tests and benchmarks build
/// their SPD systems with the production grounding convention.
[[nodiscard]] la::CsrMatrix grounded_laplacian(const graph::Graph& g,
                                               Index ground = 0);

/// The method `method` resolves to for a graph of `num_nodes` nodes and
/// `num_edges` edges: kAuto picks Cholesky for small or ultra-sparse
/// graphs and PCG-AMG for large meshes; any other method is kept.
[[nodiscard]] LaplacianMethod resolve_laplacian_method(LaplacianMethod method,
                                                       Index num_nodes,
                                                       Index num_edges);

/// CLI-facing name of a method ("cholesky", "pcg-amg", "auto").
[[nodiscard]] const char* laplacian_method_name(LaplacianMethod method);

/// Inverse of laplacian_method_name; nullopt for unknown names.
[[nodiscard]] std::optional<LaplacianMethod> parse_laplacian_method(
    std::string_view name);

/// Comma-joined valid names for CLI error messages.
[[nodiscard]] std::string laplacian_method_name_list();

struct LaplacianSolverOptions {
  LaplacianMethod method = LaplacianMethod::kAuto;
  OrderingMethod ordering = OrderingMethod::kAuto;
  /// Worker threads for the numeric factorization (0 = library default,
  /// 1 = serial). The factor is bit-identical for every value.
  Index num_threads = 0;
  PcgOptions pcg;
  AmgOptions amg;
};

/// Iteration statistics of the most recent block solve on a PCG method —
/// the iterative-path counterpart of FactorStats (all zero on the
/// Cholesky path, which runs no iterations).
struct PcgBlockStats {
  /// Block width of the last apply_block (1 after a scalar apply()).
  Index columns = 0;
  /// Max per-column iteration count — the block iterations actually run.
  Index max_iterations = 0;
  /// Sum over columns — the work a per-column solver would have streamed.
  Index total_iterations = 0;
  Index converged_columns = 0;
};

class LaplacianPinvSolver {
 public:
  /// Builds a solver for the Laplacian of `g`. The graph must be connected
  /// (checked; required for pseudo-inverse semantics).
  explicit LaplacianPinvSolver(const graph::Graph& g,
                               const LaplacianSolverOptions& options = {});

  /// Same, but a non-empty `ordering_hint` (a permutation of the grounded
  /// system returned by cholesky_permutation() on a previous solver of a
  /// same-node-count graph) replaces the ordering heuristic on the
  /// Cholesky path — the dominant rebuild cost on near-tree graphs, and a
  /// permutation computed a few edges ago is still a good fill reducer
  /// (DESIGN.md §8). An empty hint, or a non-Cholesky resolved method,
  /// behaves exactly like the plain constructor.
  LaplacianPinvSolver(const graph::Graph& g,
                      const LaplacianSolverOptions& options,
                      std::vector<Index> ordering_hint);

  /// Same as the plain constructor, but on the Cholesky path a `symbolic`
  /// analysis made with `options.ordering` whose analysed pattern equals
  /// this graph's grounded Laplacian is shared: only the numeric phase
  /// runs (DESIGN.md §10). Orderings and the analysis depend on the
  /// pattern alone, so the factor is bitwise the one the plain
  /// constructor builds. A null or non-matching `symbolic` is ignored.
  LaplacianPinvSolver(const graph::Graph& g,
                      const LaplacianSolverOptions& options,
                      std::shared_ptr<const CholeskySymbolic> symbolic);

  /// x = L⁺ y. `y` is centered internally, so any vector may be passed;
  /// the component along the all-ones nullspace is ignored, exactly as the
  /// pseudo-inverse prescribes. Safe to call concurrently from multiple
  /// threads (the factorization/preconditioner is read-only after
  /// construction), which is what apply_block relies on.
  [[nodiscard]] la::Vector apply(const la::Vector& y) const;

  /// X = L⁺ Y for an n × b block of right-hand sides — the multi-RHS hot
  /// path. All b solves share this solver's factorization/preconditioner
  /// (built once at construction). On the Cholesky path the whole block
  /// goes through ONE pair of level-parallel triangular sweeps (the
  /// factor's nonzeros are streamed once per block, not once per column),
  /// with grounding gather/scatter and centering hoisted into MultiVector
  /// kernels; the PCG path runs block PCG (pcg_solve_block): one CSR SpMM
  /// and one Preconditioner::apply_block per iteration, with converged
  /// columns deflated. Every output element is computed in the same fixed
  /// order as apply(), so the block result is bit-identical to b
  /// sequential apply() calls for every thread count and block width.
  /// PCG convergence is checked per RHS; if any column stalls, the whole
  /// block finishes and a NumericalError naming the first stalled column
  /// (by its index in Y) is thrown. `num_threads`: 0 = library default,
  /// 1 = serial.
  void apply_block(la::ConstBlockView y, la::BlockView x,
                   Index num_threads = 0) const;

  /// apply_block with explicit per-call PCG options, the warm-start entry
  /// point (DESIGN.md §8): on the PCG path `pcg.initial_guess` seeds
  /// the internal grounded iterate (an (n−1) × b block in grounded
  /// coordinates) and `pcg.final_iterate` receives the converged grounded
  /// iterate for the caller to feed back next time. Null views — the
  /// default PcgOptions — reproduce the zero-guess solve bitwise; the
  /// Cholesky path ignores both (a direct solve has no iterate).
  void apply_block(la::ConstBlockView y, la::BlockView x,
                   const PcgOptions& pcg, Index num_threads = 0) const;

  /// Convenience overload for measurement-matrix callers.
  [[nodiscard]] la::DenseMatrix apply_block(const la::DenseMatrix& y,
                                            Index num_threads = 0) const {
    la::DenseMatrix x(y.rows(), y.cols());
    apply_block(la::view_of(y), la::view_of(x), num_threads);
    return x;
  }

  /// Effective resistance between s and t: (e_s − e_t)ᵀ L⁺ (e_s − e_t).
  /// On the Cholesky path a sparse forward solve over the two
  /// elimination-tree paths of s and t (CholeskySolver::difference_energy,
  /// no full sweep); on the PCG path x[s] − x[t] of x = apply(e_s − e_t).
  /// Serial per pair, so bitwise the same on every thread.
  [[nodiscard]] Real effective_resistance(Index s, Index t) const;

  /// effective_resistance over many pairs, each answered bitwise as a
  /// single call would. The Cholesky path loops over the kernel; the PCG
  /// path runs the probe columns e_s − e_t through apply_block a fixed
  /// chunk at a time (`num_threads` as for apply_block).
  [[nodiscard]] std::vector<Real> effective_resistances(
      std::span<const std::pair<Index, Index>> pairs,
      Index num_threads = 0) const;

  [[nodiscard]] Index num_nodes() const noexcept { return n_; }

  /// Method actually selected after kAuto resolution.
  [[nodiscard]] LaplacianMethod method() const noexcept { return method_; }

  /// Factorization statistics (nnz, supernodes, levels, seconds) when the
  /// resolved method is Cholesky; nullptr on the PCG path, which holds
  /// no factor.
  [[nodiscard]] const FactorStats* factor_stats() const noexcept {
    return cholesky_ ? &cholesky_->stats() : nullptr;
  }

  /// The Cholesky factor of the grounded system; nullptr on the PCG path.
  [[nodiscard]] const CholeskySolver* cholesky_factor() const noexcept {
    return cholesky_.get();
  }

  /// The symbolic analysis the Cholesky factor runs on (null on the PCG
  /// path) — hand it to the symbolic constructor of a solver for a graph
  /// of the same pattern.
  [[nodiscard]] std::shared_ptr<const CholeskySymbolic> cholesky_symbolic()
      const {
    return cholesky_ ? cholesky_->symbolic() : nullptr;
  }

  /// The grounded-system fill-reducing permutation of the Cholesky factor
  /// (empty on the PCG path) — feed it to the ordering-hint constructor
  /// to rebuild over a grown pattern without re-running the ordering
  /// heuristic.
  [[nodiscard]] const std::vector<Index>& cholesky_permutation() const {
    static const std::vector<Index> kEmpty;
    return cholesky_ ? cholesky_->permutation() : kEmpty;
  }

  /// PCG iterations spent in the most recent apply() or — max over the
  /// block's columns — apply_block() (0 on the Cholesky path, which
  /// resets the counter). Under concurrent calls this reports whichever
  /// solve recorded last; the value is always from ONE solve, never a
  /// mix.
  [[nodiscard]] Index last_pcg_iterations() const noexcept
      SGL_EXCLUDES(stats_mutex_) {
    const common::MutexLock lock(stats_mutex_);
    return pcg_stats_.max_iterations;
  }

  /// Per-block iteration statistics of the most recent apply()/
  /// apply_block() on a PCG method — the iterative-path counterpart of
  /// factor_stats(). All zero on the Cholesky path. The whole struct is
  /// written and read under one lock, so the snapshot is always
  /// internally consistent (it describes exactly one solve, even under
  /// concurrent applies — which one is unspecified).
  [[nodiscard]] PcgBlockStats pcg_block_stats() const noexcept
      SGL_EXCLUDES(stats_mutex_) {
    const common::MutexLock lock(stats_mutex_);
    return pcg_stats_;
  }

 private:
  /// Probe columns per apply_block in effective_resistances (PCG path).
  static constexpr Index kResistanceChunk = 16;

  /// Shared constructor body: a non-empty `ordering_hint` or a matching
  /// `symbolic` replaces the ordering heuristic (at most one is given).
  LaplacianPinvSolver(const graph::Graph& g,
                      const LaplacianSolverOptions& options,
                      std::vector<Index> ordering_hint,
                      std::shared_ptr<const CholeskySymbolic> symbolic);

  /// Node → grounded-system index; kInvalidIndex for the ground node.
  [[nodiscard]] Index grounded_index(Index v) const;

  /// One grounded solve: the shared per-column kernel behind apply() and
  /// apply_block(). `y` and `x` may alias.
  void apply_column(std::span<const Real> y, std::span<Real> x) const;

  Index n_ = 0;
  Index ground_ = 0;  // grounded node (index 0 by convention)
  LaplacianMethod method_ = LaplacianMethod::kCholesky;
  la::CsrMatrix grounded_;  // (n−1)×(n−1) SPD reduced Laplacian
  std::vector<Index> live_rows_;  // the n−1 non-ground node indices
  std::unique_ptr<CholeskySolver> cholesky_;
  std::unique_ptr<Preconditioner> preconditioner_;
  PcgOptions pcg_options_;
  /// Records one solve's statistics (block width, per-column iteration
  /// counts) into the guarded diagnostic snapshot. Once per apply()/
  /// apply_block() call, so the lock is nowhere near a hot loop.
  void record_pcg_stats(Index columns, Index max_iters, Index total_iters,
                        Index converged) const noexcept
      SGL_EXCLUDES(stats_mutex_);

  // Diagnostic counters shared by concurrent apply() calls (multi-RHS
  // solves issue them from pool workers). Guarded by one mutex — not
  // per-field relaxed atomics — so readers can never observe a snapshot
  // torn across two racing solves; the thread-safety analysis enforces
  // the locking discipline (DESIGN.md §7).
  mutable common::Mutex stats_mutex_;
  mutable PcgBlockStats pcg_stats_ SGL_GUARDED_BY(stats_mutex_);
};

}  // namespace sgl::solver
