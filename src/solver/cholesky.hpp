// Sparse LDLᵀ factorization subsystem for symmetric positive definite
// systems (DESIGN.md §4).
//
// The factorization is split into an explicit symbolic phase and a
// level-scheduled numeric phase. The symbolic phase's result is its own
// immutable object (CholeskySymbolic), so matrices of one pattern —
// weight variants of one graph — factor on a shared analysis:
//
//   - Symbolic analysis builds the elimination tree of P A Pᵀ (orderings
//     from ordering.hpp), the full column pattern of L, a row-major
//     mirror of that pattern for gather-based sweeps, chain-coalesced
//     column blocks (supernodes: maximal single-child parent chains, so a
//     tridiagonal chain or the dense trailing triangle of a mesh factor
//     becomes one block), and level sets over the block tree — blocks in
//     the same level set share no ancestor/descendant relation and can be
//     factored or swept concurrently.
//   - Symbolic analysis additionally refines each chain block into
//     *fundamental panels*: maximal runs of consecutive columns with
//     pattern(j) = {j+1} ∪ pattern(j+1). A panel's columns share one
//     below-diagonal row set and a dense diagonal triangle, so the panel
//     packs into a contiguous row-major dense block with ZERO fill —
//     every panel slot is a structural factor entry (plus one diagonal
//     accumulator slot per column).
//   - Numeric factorization comes in two bit-identical kernels
//     (FactorKernel): the retained scalar reference (left-looking one
//     column at a time, the PR 4 path) and the default supernodal
//     dense-panel kernel (DESIGN.md §9), which applies external updates
//     per DESCENDANT PANEL in ascending order — each descendant's columns
//     share one contiguous CSC row tail, so the update is a small dense
//     outer-product block restricted to exactly the touched rows ×
//     columns, streamed through register-blocked GEMM-style microkernels
//     (compile-time tile widths 8/4/2/1, the la::spmm idiom) straight
//     from factor storage — then factors the panel right-looking. Both
//     kernels subtract every per-element term in ascending updater order
//     with identical operand association, so the factor is bit-identical
//     across kernels and for every thread count.
//   - difference_energy answers bᵀ A⁻¹ b for b = e_s − e_t with a forward
//     solve restricted to the elimination-tree paths of s and t (the
//     reach of a two-entry right-hand side), for effective resistances.
//   - Triangular solves come in a scalar flavour (solve / solve_in_place,
//     the per-column reference path) and a block flavour (solve_block /
//     solve_in_place_block) that streams the factor's nonzeros ONCE per
//     block of b right-hand sides with level-parallel sweeps. Under the
//     supernodal kernel the forward sweep streams the retained dense
//     panels via precomputed contiguous gather runs instead of per-entry
//     CSC indirections. All flavours gather every output element in the
//     same fixed order, so the block result equals the scalar result
//     bitwise, column by column, for every thread count.
//
// On the ultra-sparse graphs SGL produces (spanning tree + εN extra
// edges) the factor is essentially linear in N; on 2D meshes nested
// dissection keeps fill near O(N log N).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "la/dense_matrix.hpp"
#include "la/multi_vector.hpp"
#include "la/sparse.hpp"
#include "la/vector_ops.hpp"
#include "solver/ordering.hpp"

namespace sgl::solver {

/// Numeric-phase kernel selector (both produce bit-identical factors).
enum class FactorKernel {
  /// Left-looking one column at a time over CSC scratch — the PR 4
  /// reference path, retained for bitwise cross-checks and as the
  /// fallback semantics specification.
  kScalar,
  /// Dense-panel supernodal kernel (DESIGN.md §9): batched GEMM-style
  /// microkernel external updates + right-looking in-panel
  /// factorization over contiguous row-major panels. The default.
  kSupernodal,
};

/// Factorization statistics (benchmarks, regression tests, --verbose).
struct FactorStats {
  Index n = 0;
  Index input_nnz = 0;   // nnz of the (full symmetric) input
  Index factor_nnz = 0;  // nnz of L (strictly lower part)
  /// Chain-coalesced column blocks (supernodes) of the elimination tree.
  Index num_supernodes = 0;
  /// Level sets of the block tree; blocks within a level are independent.
  Index num_levels = 0;
  /// Widest level (upper bound on exploitable factor/sweep parallelism).
  Index max_level_supernodes = 0;
  /// Levels with enough numeric-phase work to go to the thread pool;
  /// the rest factor inline on the calling thread (DESIGN.md §4).
  Index pool_levels = 0;
  double factor_seconds = 0.0;
  /// Fundamental dense panels (width ≥ 1; a refinement of the chain
  /// blocks — every column belongs to exactly one panel).
  Index num_panels = 0;
  /// Columns living in panels of width ≥ 2 (the dense-kernel coverage;
  /// the rest run the width-1 panel path, equivalent to a CSC column).
  Index panel_columns = 0;
  /// Widest panel (dense triangle size of the best supernode).
  Index panel_max_width = 0;
};

class CholeskySolver;

/// The pattern-only half of a factorization (DESIGN.md §4): the
/// fill-reducing permutation and everything analyze() derives from it and
/// the input's sparsity pattern — elimination tree, column pattern of L
/// and its row mirror, chain blocks, level sets, panels, updater lists,
/// per-level work — plus the analysed input pattern itself. None of it
/// depends on a value, so solvers over weight variants of one pattern
/// share one instance through std::shared_ptr<const CholeskySymbolic>;
/// it is immutable once built.
class CholeskySymbolic {
 public:
  /// Orders `a` (full symmetric storage) with the `ordering` heuristic
  /// and analyses P a Pᵀ.
  CholeskySymbolic(const la::CsrMatrix& a, OrderingMethod ordering);

  /// Analyses P a Pᵀ for a caller-provided permutation (`perm[new] =
  /// old`); ordering() is then empty.
  CholeskySymbolic(const la::CsrMatrix& a, std::vector<Index> perm);

  /// True when `a` has exactly the analysed input pattern: same size,
  /// row pointers and column indices. Values are not looked at.
  [[nodiscard]] bool matches(const la::CsrMatrix& a) const;

  /// The heuristic the permutation came from; empty for an explicit
  /// permutation. A heuristic orders from the pattern alone, so two equal
  /// patterns analysed with one heuristic yield the same symbolic.
  [[nodiscard]] const std::optional<OrderingMethod>& ordering() const noexcept {
    return ordering_;
  }

 private:
  friend class CholeskySolver;

  CholeskySymbolic(const la::CsrMatrix& a, std::vector<Index> perm,
                   std::optional<OrderingMethod> ordering);
  /// Builds the pattern of P a Pᵀ and the gather map from a's values.
  void permute_pattern(const la::CsrMatrix& a);
  void analyze();
  /// Refines the chain blocks into fundamental panels, sizes the panel
  /// storage, and precomputes the per-panel descendant-updater lists
  /// shared by the numeric phase and the block sweeps (from analyze()).
  void build_panels();

  Index n_ = 0;
  std::optional<OrderingMethod> ordering_;
  std::vector<Index> perm_;      // perm_[new] = old
  std::vector<Index> inv_perm_;  // inv_perm_[old] = new
  // The analysed input pattern (matches()).
  std::vector<Index> in_row_ptr_;
  std::vector<Index> in_col_idx_;
  // Pattern of P a Pᵀ (rows ascending) and, per entry, the position of
  // its value in a.values(): the numeric phase gathers its input with
  // one pass instead of re-permuting the matrix.
  std::vector<Index> pa_row_ptr_;
  std::vector<Index> pa_col_idx_;
  std::vector<Index> pa_src_;
  // L in compressed-column form (unit diagonal implicit, rows ascending).
  std::vector<Index> l_col_ptr_;
  std::vector<Index> l_row_idx_;
  // Row-major mirror of L's pattern: row i lists its columns k < i in
  // ascending order (the updaters of column i / the gather list of the
  // forward sweep). r_val_pos_[q] is the CSC position of the same entry.
  std::vector<Index> r_row_ptr_;
  std::vector<Index> r_col_idx_;
  std::vector<Index> r_val_pos_;
  // Chain-coalesced column blocks: block s = columns
  // [super_ptr_[s], super_ptr_[s+1]), and their level sets: level l =
  // level_supers_[level_ptr_[l] .. level_ptr_[l+1]) (ascending block ids
  // within a level — the deterministic combine order of the level).
  std::vector<Index> super_ptr_;
  std::vector<Index> level_ptr_;
  std::vector<Index> level_supers_;
  // Per-level work that decides inline vs pool: a sweep's per right-hand
  // side (columns plus factor entries), and the numeric phase's
  // left-looking multiply-adds.
  std::vector<std::int64_t> sweep_work_;
  std::vector<std::int64_t> factor_work_;
  // Fundamental panels (DESIGN.md §9): panel p = columns
  // [panel_ptr_[p], panel_ptr_[p+1]), a refinement of the chain blocks —
  // supernode s owns panels [super_panel_ptr_[s], super_panel_ptr_[s+1]).
  // Every column of a panel shares the below-diagonal row set of the
  // panel's LAST column (= pattern of that column), so the panel packs
  // into a dense row-major block with zero fill.
  std::vector<Index> panel_ptr_;
  std::vector<Index> super_panel_ptr_;
  std::size_t max_panel_entries_ = 0;  // rows × width of the biggest panel
  Index max_panel_rows_ = 0;
  // Per-panel descendant updaters: panel p is updated by the descendant
  // panels panel_upd_[panel_upd_ptr_[p] .. panel_upd_ptr_[p+1]),
  // ascending. For one record, the updater columns are [k0, k0+w); the
  // last m entries of each of those CSC columns are the shared ascending
  // row tail, of which the first mt rows land inside p (as update
  // columns) and all m inside p's row set. Consumed by both the numeric
  // phase (factor_panel) and the panel-structured block sweeps, so
  // neither recollects or sorts updaters at run time.
  struct PanelUpdater {
    Index k0;  // first updater column
    Index w;   // updater panel width
    Index m;   // shared tail length at/after the target's first column
    Index mt;  // tail rows inside the target panel (update columns)
  };
  std::vector<PanelUpdater> panel_upd_;
  std::vector<Index> panel_upd_ptr_;  // per panel, into panel_upd_
  FactorStats stats_;
};

class CholeskySolver {
 public:
  /// Factors the SPD matrix `a` (full symmetric storage) as
  /// P a Pᵀ = L D Lᵀ. Throws NumericalError if a pivot is ≤ 0 (matrix not
  /// positive definite). `num_threads` workers factor the level sets
  /// (0 = library default, 1 = serial); the factor is bit-identical for
  /// every value and for both kernels.
  explicit CholeskySolver(const la::CsrMatrix& a,
                          OrderingMethod ordering = OrderingMethod::kAuto,
                          Index num_threads = 0,
                          FactorKernel kernel = FactorKernel::kSupernodal);

  /// Factors `a` with a caller-provided fill-reducing permutation instead
  /// of running an ordering heuristic (DESIGN.md §8: a SolverContext
  /// reuses the cached ordering across pattern-growth rebuilds — the
  /// ordering is the dominant analysis cost on near-tree graphs, and a
  /// permutation computed a few edges ago is still a good fill reducer).
  /// `perm[new] = old`; any permutation is valid (fill may differ).
  CholeskySolver(const la::CsrMatrix& a, std::vector<Index> perm,
                 Index num_threads = 0,
                 FactorKernel kernel = FactorKernel::kSupernodal);

  /// Factors `a` on an existing analysis of its pattern: only the
  /// numeric phase runs. Precondition: `symbolic->matches(a)` (checked;
  /// SGL_EXPECTS). The factor is bitwise the one a solver that built
  /// this symbolic itself would compute for `a`, for every thread count.
  CholeskySolver(const la::CsrMatrix& a,
                 std::shared_ptr<const CholeskySymbolic> symbolic,
                 Index num_threads = 0,
                 FactorKernel kernel = FactorKernel::kSupernodal);

  /// Solves a x = b (scalar reference path).
  [[nodiscard]] la::Vector solve(const la::Vector& b) const;

  /// In-place variant reusing caller storage.
  void solve_in_place(la::Vector& x) const;

  /// Solves a X = B for an n × b column block in place: one forward and
  /// one backward sweep over the factor per block (not per column), with
  /// level-parallel gathers. Bit-identical to b scalar solve() calls for
  /// every thread count.
  void solve_in_place_block(la::BlockView x, Index num_threads = 0) const;

  /// Convenience overload: returns the solved block.
  [[nodiscard]] la::MultiVector solve_block(la::MultiVector b,
                                            Index num_threads = 0) const {
    solve_in_place_block(b.view(), num_threads);
    return b;
  }

  /// bᵀ A⁻¹ b for b = e_s − e_t by a sparse forward solve over the
  /// elimination tree (DESIGN.md §4): only the two root paths of s and t
  /// are touched, with no backward sweep. Either index may be
  /// kInvalidIndex, which drops that term (the grounded node of a
  /// Laplacian). Serial and allocation-free after a thread's first call
  /// on a system this large (per-thread scratch), so the value is
  /// bitwise the same on every thread.
  [[nodiscard]] Real difference_energy(Index s, Index t) const;

  [[nodiscard]] Index size() const noexcept { return symbolic_->n_; }
  [[nodiscard]] const FactorStats& stats() const noexcept { return stats_; }
  /// The fill-reducing permutation in use (`perm[new] = old`) — feed it
  /// back into the explicit-permutation constructor to rebuild over a
  /// grown pattern without re-running the ordering heuristic.
  [[nodiscard]] const std::vector<Index>& permutation() const noexcept {
    return symbolic_->perm_;
  }
  /// The analysis this factor runs on — hand it to the symbolic
  /// constructor to factor another matrix of the same pattern.
  [[nodiscard]] const std::shared_ptr<const CholeskySymbolic>& symbolic()
      const noexcept {
    return symbolic_;
  }
  /// Strictly lower values of L in compressed-column order.
  [[nodiscard]] const std::vector<Real>& factor_values() const noexcept {
    return l_values_;
  }
  /// The diagonal of D.
  [[nodiscard]] const la::Vector& diagonal() const noexcept { return d_; }

 private:
  /// Gathers a's values into P a Pᵀ order, runs the numeric phase, and
  /// fills the row-major value mirror.
  void factorize(const la::CsrMatrix& a, Index num_threads);
  /// Level-parallel left-looking numeric phase over the permuted input
  /// values `pv`. Dispatches per supernode to the scalar or panel kernel.
  void run_numeric_phase(const Real* pv, Index num_threads);
  /// Scratch one worker slot owns across its supernodes of a level.
  /// Sized once per numeric phase; every panel leaves map reset so the
  /// next panel on the slot starts clean.
  struct PanelWorkspace {
    la::Storage column;              // dense n-scratch (width-1 path)
    la::Storage panel;               // dense panel under construction
    la::Storage cvec;                // update scalars d_k·L(j,k)
    std::vector<Index> map;          // global row → panel-local below slot
    std::vector<Index> lrow;         // descendant tail row → panel slot
    std::vector<const Real*> tails;  // descendant tail column pointers
  };
  /// Factors panel p (columns [c0, c1), width ≥ 2) in ws.panel —
  /// descendant-panel outer-product updates through the register-tiled
  /// microkernel, then a right-looking in-panel factorization — and
  /// scatters the finished columns into l_values_ / d_. Bit-identical to
  /// calling factor_column on each column in turn (same per-element
  /// update order, association, and pivot checks).
  void factor_panel(const Real* pv, Index p, PanelWorkspace& ws);
  /// Left-looking update of one column onto the dense scratch `w`
  /// (zeroed outside the column's pattern; restored to zero on return).
  void factor_column(const Real* pv, Index j, Real* w);
  /// Full solve pipeline (gather → L → D → Lᵀ → scatter) for the TILE
  /// columns [col0, col0 + TILE) of x. The tile width is a compile-time
  /// constant so the b-wide updates vectorize (same trick as la::spmm).
  template <int TILE>
  void solve_block_tile(la::BlockView x, Index col0, Index num_threads,
                        la::Storage& w) const;

  std::shared_ptr<const CholeskySymbolic> symbolic_;
  // Numeric values over symbolic_'s pattern: L in compressed-column
  // order, its row-major mirror (so forward sweeps stream contiguously),
  // and the diagonal of D.
  std::vector<Real> l_values_;
  std::vector<Real> r_values_;
  la::Vector d_;
  FactorKernel kernel_ = FactorKernel::kSupernodal;
  FactorStats stats_;
};

}  // namespace sgl::solver
