#include "solver/cholesky.hpp"

#include <algorithm>
#include <string>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"

namespace sgl::solver {

namespace {

/// Work below which a level set (or an O(n) pass of the block sweeps)
/// runs inline on the calling thread: waking the pool costs more than
/// such a level, and a near-tree factor has hundreds of them. A unit is
/// about one multiply-add: factor entries times right-hand sides in the
/// sweeps, left-looking updates in the numeric phase. Scheduling only —
/// the values are identical either way.
constexpr std::int64_t kParallelWork = 32768;

/// The heuristic's permutation of `a`, checked square first (the
/// orderings read the pattern as a graph and do not check).
std::vector<Index> square_ordering(const la::CsrMatrix& a,
                                   OrderingMethod ordering) {
  SGL_EXPECTS(a.rows() == a.cols(), "CholeskySolver: matrix must be square");
  return compute_ordering(a, ordering);
}

}  // namespace

CholeskySymbolic::CholeskySymbolic(const la::CsrMatrix& a,
                                   OrderingMethod ordering)
    : CholeskySymbolic(a, square_ordering(a, ordering), ordering) {}

CholeskySymbolic::CholeskySymbolic(const la::CsrMatrix& a,
                                   std::vector<Index> perm)
    : CholeskySymbolic(a, std::move(perm), std::nullopt) {}

CholeskySymbolic::CholeskySymbolic(const la::CsrMatrix& a,
                                   std::vector<Index> perm,
                                   std::optional<OrderingMethod> ordering)
    : n_(a.rows()), ordering_(ordering), perm_(std::move(perm)) {
  SGL_EXPECTS(a.rows() == a.cols(), "CholeskySolver: matrix must be square");
  SGL_EXPECTS(to_index(perm_.size()) == a.rows(),
              "CholeskySolver: permutation size mismatch");
  inv_perm_ = invert_permutation(perm_);
  stats_.n = n_;
  stats_.input_nnz = a.nnz();
  in_row_ptr_ = a.row_ptr();
  in_col_idx_ = a.col_idx();
  permute_pattern(a);
  analyze();
}

bool CholeskySymbolic::matches(const la::CsrMatrix& a) const {
  return a.rows() == n_ && a.cols() == n_ && a.row_ptr() == in_row_ptr_ &&
         a.col_idx() == in_col_idx_;
}

void CholeskySymbolic::permute_pattern(const la::CsrMatrix& a) {
  // Two counting passes give the rows of P a Pᵀ in ascending column order
  // with no sort: bucket every entry by its new column, walking the new
  // rows in ascending order, then walk the new columns in ascending order
  // and append each entry to its new row. Entry (i', j') of P a Pᵀ is
  // a(perm[i'], perm[j']); pa_src_ records where that value sits in a.
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const std::size_t un = static_cast<std::size_t>(n_);
  const std::size_t nnz = ci.size();
  std::vector<Index> col_ptr(un + 1, 0);
  for (const Index c : ci)
    ++col_ptr[static_cast<std::size_t>(inv_perm_[static_cast<std::size_t>(c)]) + 1];
  for (std::size_t j = 0; j < un; ++j) col_ptr[j + 1] += col_ptr[j];
  std::vector<Index> col_row(nnz);
  std::vector<Index> col_src(nnz);
  std::vector<Index> col_next(col_ptr.begin(), col_ptr.end() - 1);
  pa_row_ptr_.assign(un + 1, 0);
  for (Index i = 0; i < n_; ++i) {
    const Index old = perm_[static_cast<std::size_t>(i)];
    const Index lo = rp[static_cast<std::size_t>(old)];
    const Index hi = rp[static_cast<std::size_t>(old) + 1];
    pa_row_ptr_[static_cast<std::size_t>(i) + 1] =
        pa_row_ptr_[static_cast<std::size_t>(i)] + (hi - lo);
    for (Index k = lo; k < hi; ++k) {
      const Index j = inv_perm_[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
      const Index q = col_next[static_cast<std::size_t>(j)]++;
      col_row[static_cast<std::size_t>(q)] = i;
      col_src[static_cast<std::size_t>(q)] = k;
    }
  }
  pa_col_idx_.resize(nnz);
  pa_src_.resize(nnz);
  std::vector<Index> row_next(pa_row_ptr_.begin(), pa_row_ptr_.end() - 1);
  for (Index j = 0; j < n_; ++j) {
    for (Index q = col_ptr[static_cast<std::size_t>(j)];
         q < col_ptr[static_cast<std::size_t>(j) + 1]; ++q) {
      const Index p =
          row_next[static_cast<std::size_t>(col_row[static_cast<std::size_t>(q)])]++;
      pa_col_idx_[static_cast<std::size_t>(p)] = j;
      pa_src_[static_cast<std::size_t>(p)] = col_src[static_cast<std::size_t>(q)];
    }
  }
}

CholeskySolver::CholeskySolver(const la::CsrMatrix& a, OrderingMethod ordering,
                               Index num_threads, FactorKernel kernel)
    : kernel_(kernel) {
  const WallTimer timer;
  symbolic_ = std::make_shared<const CholeskySymbolic>(a, ordering);
  factorize(a, num_threads);
  stats_.factor_seconds = timer.seconds();
}

CholeskySolver::CholeskySolver(const la::CsrMatrix& a, std::vector<Index> perm,
                               Index num_threads, FactorKernel kernel)
    : kernel_(kernel) {
  const WallTimer timer;
  symbolic_ = std::make_shared<const CholeskySymbolic>(a, std::move(perm));
  factorize(a, num_threads);
  stats_.factor_seconds = timer.seconds();
}

CholeskySolver::CholeskySolver(const la::CsrMatrix& a,
                               std::shared_ptr<const CholeskySymbolic> symbolic,
                               Index num_threads, FactorKernel kernel)
    : symbolic_(std::move(symbolic)), kernel_(kernel) {
  SGL_EXPECTS(symbolic_ != nullptr, "CholeskySolver: null symbolic analysis");
  SGL_EXPECTS(symbolic_->matches(a),
              "CholeskySolver: input pattern differs from the analysed "
              "pattern — a full analysis is required");
  const WallTimer timer;
  factorize(a, num_threads);
  stats_.factor_seconds = timer.seconds();
}

void CholeskySymbolic::analyze() {
  const auto& rp = pa_row_ptr_;
  const auto& ci = pa_col_idx_;
  const std::size_t un = static_cast<std::size_t>(n_);

  // --- Elimination tree and per-column factor counts. -------------------
  // Row k of the (symmetric) matrix restricted to indices < k is the
  // pattern of column k of the upper factor; walking each entry up the
  // elimination tree enumerates the columns it updates.
  std::vector<Index> parent(un, kInvalidIndex);
  std::vector<Index> flag(un, kInvalidIndex);
  std::vector<Index> l_nnz(un, 0);
  for (Index k = 0; k < n_; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    for (Index p = rp[static_cast<std::size_t>(k)];
         p < rp[static_cast<std::size_t>(k) + 1]; ++p) {
      Index i = ci[static_cast<std::size_t>(p)];
      if (i >= k) continue;
      for (; flag[static_cast<std::size_t>(i)] != k;
           i = parent[static_cast<std::size_t>(i)]) {
        if (parent[static_cast<std::size_t>(i)] == kInvalidIndex)
          parent[static_cast<std::size_t>(i)] = k;
        ++l_nnz[static_cast<std::size_t>(i)];
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }

  l_col_ptr_.assign(un + 1, 0);
  for (Index j = 0; j < n_; ++j)
    l_col_ptr_[static_cast<std::size_t>(j) + 1] =
        l_col_ptr_[static_cast<std::size_t>(j)] + l_nnz[static_cast<std::size_t>(j)];
  const Index total_nnz = l_col_ptr_[un];
  stats_.factor_nnz = total_nnz;
  l_row_idx_.resize(static_cast<std::size_t>(total_nnz));

  // --- Full column pattern of L. ----------------------------------------
  // Re-run the row-subtree walk with the completed tree; appending row k
  // to every column it updates fills each column's rows in ascending
  // order because k only grows.
  std::vector<Index> next_slot(l_col_ptr_.begin(), l_col_ptr_.end() - 1);
  std::fill(flag.begin(), flag.end(), kInvalidIndex);
  for (Index k = 0; k < n_; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    for (Index p = rp[static_cast<std::size_t>(k)];
         p < rp[static_cast<std::size_t>(k) + 1]; ++p) {
      Index i = ci[static_cast<std::size_t>(p)];
      if (i >= k) continue;
      for (; flag[static_cast<std::size_t>(i)] != k;
           i = parent[static_cast<std::size_t>(i)]) {
        l_row_idx_[static_cast<std::size_t>(
            next_slot[static_cast<std::size_t>(i)]++)] = k;
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }

  // --- Row-major mirror (the gather lists). -----------------------------
  // Iterating columns in ascending order fills each row's entries with
  // ascending column indices — the fixed gather order of every sweep.
  r_row_ptr_.assign(un + 1, 0);
  for (Index p = 0; p < total_nnz; ++p)
    ++r_row_ptr_[static_cast<std::size_t>(l_row_idx_[static_cast<std::size_t>(p)]) + 1];
  for (Index i = 0; i < n_; ++i)
    r_row_ptr_[static_cast<std::size_t>(i) + 1] += r_row_ptr_[static_cast<std::size_t>(i)];
  r_col_idx_.resize(static_cast<std::size_t>(total_nnz));
  r_val_pos_.resize(static_cast<std::size_t>(total_nnz));
  std::vector<Index> row_next(r_row_ptr_.begin(), r_row_ptr_.end() - 1);
  for (Index j = 0; j < n_; ++j) {
    for (Index p = l_col_ptr_[static_cast<std::size_t>(j)];
         p < l_col_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const Index i = l_row_idx_[static_cast<std::size_t>(p)];
      const Index q = row_next[static_cast<std::size_t>(i)]++;
      r_col_idx_[static_cast<std::size_t>(q)] = j;
      r_val_pos_[static_cast<std::size_t>(q)] = p;
    }
  }

  // --- Chain-coalesced column blocks (supernodes). ----------------------
  // Column j joins the block of j−1 when j−1 is its only child: every
  // strict descendant of j is then a descendant of j−1, so the block is a
  // self-contained serial task and a tridiagonal chain (or the dense
  // trailing triangle of a mesh factor) never fragments into n levels.
  std::vector<Index> num_children(un, 0);
  for (Index j = 0; j < n_; ++j) {
    if (parent[static_cast<std::size_t>(j)] != kInvalidIndex)
      ++num_children[static_cast<std::size_t>(parent[static_cast<std::size_t>(j)])];
  }
  super_ptr_.clear();
  super_ptr_.push_back(0);
  std::vector<Index> super_of(un, 0);
  for (Index j = 1; j < n_; ++j) {
    const bool chains = parent[static_cast<std::size_t>(j) - 1] == j &&
                        num_children[static_cast<std::size_t>(j)] == 1;
    if (!chains) super_ptr_.push_back(j);
    super_of[static_cast<std::size_t>(j)] = to_index(super_ptr_.size()) - 1;
  }
  super_ptr_.push_back(n_);
  const Index nsuper = to_index(super_ptr_.size()) - 1;
  stats_.num_supernodes = nsuper;

  // --- Level sets over the block tree. ----------------------------------
  // level[s] = 1 + max level over blocks feeding s through a
  // cross-block parent edge. Cross edges always originate below the
  // target block's first column, so one ascending pass suffices.
  std::vector<Index> level(static_cast<std::size_t>(nsuper), 0);
  for (Index j = 0; j < n_; ++j) {
    const Index pj = parent[static_cast<std::size_t>(j)];
    if (pj == kInvalidIndex) continue;
    const Index s = super_of[static_cast<std::size_t>(j)];
    const Index sp = super_of[static_cast<std::size_t>(pj)];
    if (sp != s) {
      level[static_cast<std::size_t>(sp)] =
          std::max(level[static_cast<std::size_t>(sp)],
                   level[static_cast<std::size_t>(s)] + 1);
    }
  }
  Index num_levels = 0;
  for (Index s = 0; s < nsuper; ++s)
    num_levels = std::max(num_levels, level[static_cast<std::size_t>(s)] + 1);
  stats_.num_levels = num_levels;

  level_ptr_.assign(static_cast<std::size_t>(num_levels) + 1, 0);
  for (Index s = 0; s < nsuper; ++s)
    ++level_ptr_[static_cast<std::size_t>(level[static_cast<std::size_t>(s)]) + 1];
  for (Index l = 0; l < num_levels; ++l)
    level_ptr_[static_cast<std::size_t>(l) + 1] += level_ptr_[static_cast<std::size_t>(l)];
  stats_.max_level_supernodes = 0;
  for (Index l = 0; l < num_levels; ++l) {
    stats_.max_level_supernodes =
        std::max(stats_.max_level_supernodes,
                 level_ptr_[static_cast<std::size_t>(l) + 1] -
                     level_ptr_[static_cast<std::size_t>(l)]);
  }
  // Per-level work, which decides inline vs pool. Sweeps: columns plus
  // factor entries, per right-hand side. Numeric phase: left-looking
  // multiply-adds — column j takes from each updater k the part of
  // column k at and below row j.
  sweep_work_.assign(static_cast<std::size_t>(num_levels), 0);
  factor_work_.assign(static_cast<std::size_t>(num_levels), 0);
  for (Index j = 0; j < n_; ++j) {
    const auto l = static_cast<std::size_t>(
        level[static_cast<std::size_t>(super_of[static_cast<std::size_t>(j)])]);
    const Index col = 1 + l_col_ptr_[static_cast<std::size_t>(j) + 1] -
                      l_col_ptr_[static_cast<std::size_t>(j)];
    sweep_work_[l] += col;
    factor_work_[l] += col;
    for (Index q = r_row_ptr_[static_cast<std::size_t>(j)];
         q < r_row_ptr_[static_cast<std::size_t>(j) + 1]; ++q) {
      const Index k = r_col_idx_[static_cast<std::size_t>(q)];
      factor_work_[l] += l_col_ptr_[static_cast<std::size_t>(k) + 1] -
                         r_val_pos_[static_cast<std::size_t>(q)];
    }
  }
  stats_.pool_levels = 0;
  for (Index l = 0; l < num_levels; ++l) {
    const Index blocks = level_ptr_[static_cast<std::size_t>(l) + 1] -
                         level_ptr_[static_cast<std::size_t>(l)];
    const std::int64_t work = factor_work_[static_cast<std::size_t>(l)];
    if (blocks > 1 && work >= kParallelWork) ++stats_.pool_levels;
  }
  level_supers_.resize(static_cast<std::size_t>(nsuper));
  std::vector<Index> level_next(level_ptr_.begin(), level_ptr_.end() - 1);
  for (Index s = 0; s < nsuper; ++s) {
    level_supers_[static_cast<std::size_t>(
        level_next[static_cast<std::size_t>(level[static_cast<std::size_t>(s)])]++)] = s;
  }

  build_panels();
}

void CholeskySymbolic::build_panels() {
  // --- Fundamental panels (DESIGN.md §9). -------------------------------
  // Within a chain block, columns j−1 and j merge when
  // |pattern(j−1)| == |pattern(j)| + 1: since parent(j−1) = j, etree
  // containment gives pattern(j−1) \ {j} ⊆ pattern(j), so equal counts
  // force pattern(j−1) = {j} ∪ pattern(j). By induction every panel
  // column's below-diagonal rows are exactly the pattern of the panel's
  // last column — a dense block with zero fill. (Full chain blocks do
  // NOT have this property: a tridiagonal chain coalesces into one block
  // whose densification would be O(n²).)
  const Index nsuper = to_index(super_ptr_.size()) - 1;
  panel_ptr_.clear();
  super_panel_ptr_.assign(static_cast<std::size_t>(nsuper) + 1, 0);
  max_panel_entries_ = 0;
  max_panel_rows_ = 0;
  stats_.panel_columns = 0;
  stats_.panel_max_width = 0;
  const auto pat_len = [&](Index j) {
    return l_col_ptr_[static_cast<std::size_t>(j) + 1] -
           l_col_ptr_[static_cast<std::size_t>(j)];
  };
  const auto close_panel = [&](Index c0, Index c1) {
    panel_ptr_.push_back(c0);
    const Index nc = c1 - c0;
    const Index rows = nc + pat_len(c1 - 1);
    max_panel_rows_ = std::max(max_panel_rows_, rows);
    max_panel_entries_ =
        std::max(max_panel_entries_, static_cast<std::size_t>(rows) *
                                         static_cast<std::size_t>(nc));
    if (nc >= 2) stats_.panel_columns += nc;
    stats_.panel_max_width = std::max(stats_.panel_max_width, nc);
  };
  for (Index s = 0; s < nsuper; ++s) {
    super_panel_ptr_[static_cast<std::size_t>(s)] = to_index(panel_ptr_.size());
    const Index lo = super_ptr_[static_cast<std::size_t>(s)];
    const Index hi = super_ptr_[static_cast<std::size_t>(s) + 1];
    Index c0 = lo;
    for (Index j = lo + 1; j < hi; ++j) {
      if (pat_len(j - 1) != pat_len(j) + 1) {
        close_panel(c0, j);
        c0 = j;
      }
    }
    if (hi > lo) close_panel(c0, hi);
  }
  super_panel_ptr_[static_cast<std::size_t>(nsuper)] =
      to_index(panel_ptr_.size());
  stats_.num_panels = to_index(panel_ptr_.size());
  panel_ptr_.push_back(n_);

  // Column → owning panel (the external-update phase groups updaters by
  // panel: a descendant's columns all update the same ancestor rows, so
  // updaters always arrive as whole panels).
  std::vector<Index> panel_of(static_cast<std::size_t>(n_), 0);
  for (Index p = 0; p + 1 < to_index(panel_ptr_.size()); ++p) {
    for (Index j = panel_ptr_[static_cast<std::size_t>(p)];
         j < panel_ptr_[static_cast<std::size_t>(p) + 1]; ++j)
      panel_of[static_cast<std::size_t>(j)] = p;
  }

  // --- Per-panel descendant updaters (symbolic, built once). ------------
  // Every updater k < c0 of a triangle row of panel p arrives as part of
  // a whole descendant panel: all columns of k's panel share one row tail
  // (the pattern of that panel's last column), so either every column
  // updates p or none does. Collect each target's updater panels from the
  // triangle rows' gather-list prefixes (epoch-mark dedupe), sort
  // ascending — panel order is first-column order, i.e. the scalar path's
  // ascending-updater order — and cache the tail split (m, mt) so neither
  // the numeric phase nor the block sweeps recompute it.
  const Index num_panels = stats_.num_panels;
  panel_upd_ptr_.assign(static_cast<std::size_t>(num_panels) + 1, 0);
  panel_upd_.clear();
  std::vector<Index> mark(static_cast<std::size_t>(num_panels), -1);
  std::vector<Index> updaters;
  for (Index p = 0; p < num_panels; ++p) {
    const Index c0 = panel_ptr_[static_cast<std::size_t>(p)];
    const Index c1 = panel_ptr_[static_cast<std::size_t>(p) + 1];
    updaters.clear();
    for (Index j = c0; j < c1; ++j) {
      for (Index q = r_row_ptr_[static_cast<std::size_t>(j)];
           q < r_row_ptr_[static_cast<std::size_t>(j) + 1]; ++q) {
        const Index k = r_col_idx_[static_cast<std::size_t>(q)];
        if (k >= c0) break;  // ascending: the rest are in-panel updaters
        const Index dp = panel_of[static_cast<std::size_t>(k)];
        if (mark[static_cast<std::size_t>(dp)] != p) {
          mark[static_cast<std::size_t>(dp)] = p;
          updaters.push_back(dp);
        }
      }
    }
    std::sort(updaters.begin(), updaters.end());
    for (const Index dp : updaters) {
      const Index k0 = panel_ptr_[static_cast<std::size_t>(dp)];
      const Index k1 = panel_ptr_[static_cast<std::size_t>(dp) + 1];
      const Index* kl_begin =
          l_row_idx_.data() + l_col_ptr_[static_cast<std::size_t>(k1 - 1)];
      const Index* kl_end =
          l_row_idx_.data() + l_col_ptr_[static_cast<std::size_t>(k1)];
      const Index m =
          to_index(kl_end - std::lower_bound(kl_begin, kl_end, c0));
      const Index* rows = kl_end - m;
      const Index mt = to_index(std::lower_bound(rows, rows + m, c1) - rows);
      panel_upd_.push_back({k0, k1 - k0, m, mt});
    }
    panel_upd_ptr_[static_cast<std::size_t>(p) + 1] =
        to_index(panel_upd_.size());
  }
}

void CholeskySolver::factor_column(const Real* pv, Index j, Real* w) {
  const CholeskySymbolic& sy = *symbolic_;
  const Index* const perm = sy.perm_.data();
  const Index* const l_col_ptr = sy.l_col_ptr_.data();
  const Index* const l_row_idx = sy.l_row_idx_.data();
  const Index* const r_row_ptr = sy.r_row_ptr_.data();
  const Index* const r_col_idx = sy.r_col_idx_.data();
  const Index* const r_val_pos = sy.r_val_pos_.data();
  const Index* const rp = sy.pa_row_ptr_.data();
  const Index* const ci = sy.pa_col_idx_.data();

  // Scatter A's column j (rows ≥ j; by symmetry, row j at columns ≥ j).
  for (Index p = rp[static_cast<std::size_t>(j)];
       p < rp[static_cast<std::size_t>(j) + 1]; ++p) {
    const Index i = ci[static_cast<std::size_t>(p)];
    if (i >= j) w[i] += pv[static_cast<std::size_t>(p)];
  }

  // Left-looking updates from every column k with L(j,k) ≠ 0, in
  // ascending k — the fixed combine order that makes the factor
  // thread-count independent. Column k's rows > j all lie inside column
  // j's pattern, so the scatter stays within entries we reset below.
  for (Index q = r_row_ptr[static_cast<std::size_t>(j)];
       q < r_row_ptr[static_cast<std::size_t>(j) + 1]; ++q) {
    const Index k = r_col_idx[static_cast<std::size_t>(q)];
    const Index p = r_val_pos[static_cast<std::size_t>(q)];
    const Real ljk = l_values_[static_cast<std::size_t>(p)];
    const Real c = d_[static_cast<std::size_t>(k)] * ljk;
    w[j] -= ljk * c;
    for (Index p2 = p + 1; p2 < l_col_ptr[static_cast<std::size_t>(k) + 1]; ++p2) {
      w[l_row_idx[static_cast<std::size_t>(p2)]] -=
          l_values_[static_cast<std::size_t>(p2)] * c;
    }
  }

  const Real dj = w[j];
  w[j] = 0.0;
  if (!(dj > 0.0)) {
    throw NumericalError(
        "CholeskySolver: non-positive pivot at column " +
            std::to_string(perm[static_cast<std::size_t>(j)]) +
            " — matrix is not positive definite",
        ErrorCode::kNonPositivePivot);
  }
  d_[static_cast<std::size_t>(j)] = dj;
  for (Index p = l_col_ptr[static_cast<std::size_t>(j)];
       p < l_col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
    const Index i = l_row_idx[static_cast<std::size_t>(p)];
    l_values_[static_cast<std::size_t>(p)] = w[i] / dj;
    w[i] = 0.0;
  }
}

void CholeskySolver::run_numeric_phase(const Real* pv, Index num_threads) {
  const CholeskySymbolic& sy = *symbolic_;
  const Index* const super_ptr = sy.super_ptr_.data();
  const Index* const level_ptr = sy.level_ptr_.data();
  const Index* const level_supers = sy.level_supers_.data();
  const Index* const panel_ptr = sy.panel_ptr_.data();
  const Index* const super_panel_ptr = sy.super_panel_ptr_.data();
  const std::int64_t* const factor_work = sy.factor_work_.data();
  const Index n = sy.n_;
  const std::size_t un = static_cast<std::size_t>(n);
  d_.assign(un, 0.0);

  const Index threads =
      stats_.pool_levels > 0 ? parallel::resolve_num_threads(num_threads) : 1;
  // One workspace per worker slot; each task leaves its scratch zeroed /
  // reset, so any slot can pick up any supernode.
  std::vector<PanelWorkspace> scratch(static_cast<std::size_t>(threads));
  const bool panels = kernel_ == FactorKernel::kSupernodal;
  for (auto& ws : scratch) {
    ws.column.assign(un, 0.0);
    if (panels) {
      ws.panel.assign(sy.max_panel_entries_, 0.0);
      // Two coefficient slabs: the paired-column external kernel keeps
      // d·tail coefficients for both target columns of a pair.
      ws.cvec.assign(static_cast<std::size_t>(stats_.panel_max_width) * 2, 0.0);
      ws.map.assign(un, 0);
      ws.lrow.assign(static_cast<std::size_t>(sy.max_panel_rows_), 0);
      ws.tails.assign(static_cast<std::size_t>(stats_.panel_max_width),
                      nullptr);
    }
  }

  const Index num_levels = sy.stats_.num_levels;
  for (Index l = 0; l < num_levels; ++l) {
    const Index lo = level_ptr[static_cast<std::size_t>(l)];
    const Index hi = level_ptr[static_cast<std::size_t>(l) + 1];
    const auto run_supers = [&](Index slo, Index shi, Index slot) {
      PanelWorkspace& ws = scratch[static_cast<std::size_t>(slot)];
      for (Index si = slo; si < shi; ++si) {
        const Index s = level_supers[static_cast<std::size_t>(si)];
        if (!panels) {
          for (Index j = super_ptr[static_cast<std::size_t>(s)];
               j < super_ptr[static_cast<std::size_t>(s) + 1]; ++j) {
            factor_column(pv, j, ws.column.data());
          }
          continue;
        }
        // Panels of the block in ascending column order; width-1 panels
        // run the scalar column kernel (a 1-wide "dense" panel is just a
        // CSC column — the batched gather would only add copies).
        for (Index p = super_panel_ptr[static_cast<std::size_t>(s)];
             p < super_panel_ptr[static_cast<std::size_t>(s) + 1]; ++p) {
          if (panel_ptr[static_cast<std::size_t>(p) + 1] -
                  panel_ptr[static_cast<std::size_t>(p)] == 1) {
            factor_column(pv, panel_ptr[static_cast<std::size_t>(p)],
                          ws.column.data());
          } else {
            factor_panel(pv, p, ws);
          }
        }
      }
    };
    if (threads == 1 || hi - lo == 1 ||
        factor_work[static_cast<std::size_t>(l)] < kParallelWork) {
      run_supers(lo, hi, 0);
    } else {
      parallel::parallel_for_slots(lo, hi, threads, run_supers);
    }
  }
}

void CholeskySolver::factor_panel(const Real* pv, Index p,
                                  PanelWorkspace& ws) {
  const CholeskySymbolic& sy = *symbolic_;
  const Index* const perm = sy.perm_.data();
  const Index* const l_col_ptr = sy.l_col_ptr_.data();
  const Index* const l_row_idx = sy.l_row_idx_.data();
  const Index* const panel_ptr = sy.panel_ptr_.data();
  const Index* const panel_upd_ptr = sy.panel_upd_ptr_.data();
  const CholeskySymbolic::PanelUpdater* const panel_upd = sy.panel_upd_.data();
  const Index c0 = panel_ptr[static_cast<std::size_t>(p)];
  const Index c1 = panel_ptr[static_cast<std::size_t>(p) + 1];
  const Index nc = c1 - c0;
  // Panel rows: the nc triangle rows c0..c1−1, then the shared below-
  // diagonal row set = pattern of the LAST column (ascending, already
  // materialized as that column's CSC row list).
  const Index below_begin = l_col_ptr[static_cast<std::size_t>(c1 - 1)];
  const Index nb = l_col_ptr[static_cast<std::size_t>(c1)] - below_begin;
  const Index* below = l_row_idx + below_begin;
  const Index total_rows = nc + nb;
  // COLUMN-major panel (stride = total_rows): every update, the in-panel
  // factorization, and the CSC scatter walk one column at a time, so the
  // hot loops touch a single contiguous ≤ total_rows·8-byte span (L1)
  // instead of striding a cache line per element across the panel.
  const std::size_t str = static_cast<std::size_t>(total_rows);
  Real* SGL_RESTRICT panel = ws.panel.data();

  // Zero the slots this panel uses, map the below rows, and scatter A's
  // columns (rows ≥ the column index — the same per-element init as the
  // scalar path; entries land in CSR order).
  std::fill(panel, panel + static_cast<std::size_t>(nc) * str, 0.0);
  for (Index m = 0; m < nb; ++m)
    ws.map[static_cast<std::size_t>(below[m])] = nc + m;
  const auto local_row = [&](Index i) {
    return i < c1 ? i - c0 : ws.map[static_cast<std::size_t>(i)];
  };
  const Index* const rp = sy.pa_row_ptr_.data();
  const Index* const ci = sy.pa_col_idx_.data();
  for (Index j = c0; j < c1; ++j) {
    for (Index q = rp[static_cast<std::size_t>(j)];
         q < rp[static_cast<std::size_t>(j) + 1]; ++q) {
      const Index i = ci[static_cast<std::size_t>(q)];
      if (i < j) continue;
      panel[static_cast<std::size_t>(j - c0) * str +
            static_cast<std::size_t>(local_row(i))] +=
          pv[static_cast<std::size_t>(q)];
    }
  }

  // --- External updates, one descendant panel at a time. ----------------
  // The updater panels (ascending — the scalar path's ascending-updater
  // order) and their tail splits come precomputed from the symbolic
  // phase (panel_upd). For one descendant panel D (columns [k0, k0+w)):
  // the entries of every column of D with row ≥ c0 are the LAST m entries
  // of that column (row lists ascending, shared tail), with shared row
  // list R. Its update touches exactly rows R × columns
  // {R[p] − c0 : R[p] < c1}:
  //   L(R[q], c0+jj) −= Σ_kk L(R[q], k0+kk) · (d_{k0+kk} · L(R[p], k0+kk))
  // — the scalar per-element terms, ascending kk inside D and ascending
  // D outside, with the scalar's c = d_k·l_jk association. The column
  // tails are read in place from factor storage (contiguous, no gather);
  // only the m panel-row slots are mapped, once per descendant.
  Index* SGL_RESTRICT lrow = ws.lrow.data();
  const Real** tails = ws.tails.data();
  Real* SGL_RESTRICT cvec = ws.cvec.data();
  for (Index di = panel_upd_ptr[static_cast<std::size_t>(p)];
       di < panel_upd_ptr[static_cast<std::size_t>(p) + 1]; ++di) {
    const auto& rec = panel_upd[static_cast<std::size_t>(di)];
    const Index k0 = rec.k0;
    const Index w = rec.w;
    const Index m = rec.m;
    const Index mt = rec.mt;
    const Index* SGL_RESTRICT rows =
        l_row_idx + l_col_ptr[static_cast<std::size_t>(k0 + w)] - m;
    // Local panel-row slots of the shared tail, resolved once per
    // descendant; the kernels index inside one panel column with them.
    for (Index q = 0; q < m; ++q) lrow[q] = local_row(rows[q]);
    for (Index kk = 0; kk < w; ++kk) {
      tails[kk] = l_values_.data() +
                  l_col_ptr[static_cast<std::size_t>(k0 + kk) + 1] - m;
    }

    if (w == 1) {
      // Width-1 descendant: one term per element, applied to target
      // columns in pairs so each tail value loads once for two columns —
      // distinct panel slots per column, so no element's single term
      // changes. Both streams are small contiguous ranges.
      const Real* SGL_RESTRICT tail = tails[0];
      const Real dk = d_[static_cast<std::size_t>(k0)];
      Index pcol = 0;
      for (; pcol + 1 < mt; pcol += 2) {
        Real* SGL_RESTRICT col_a =
            panel + static_cast<std::size_t>(rows[pcol] - c0) * str;
        Real* SGL_RESTRICT col_b =
            panel + static_cast<std::size_t>(rows[pcol + 1] - c0) * str;
        const Real ca = dk * tail[pcol];
        const Real cb = dk * tail[pcol + 1];
        col_a[static_cast<std::size_t>(lrow[pcol])] -= tail[pcol] * ca;
        for (Index q = pcol + 1; q < m; ++q) {
          const Real tq = tail[q];
          const std::size_t slot = static_cast<std::size_t>(lrow[q]);
          col_a[slot] -= tq * ca;
          col_b[slot] -= tq * cb;
        }
      }
      for (; pcol < mt; ++pcol) {
        Real* SGL_RESTRICT col =
            panel + static_cast<std::size_t>(rows[pcol] - c0) * str;
        const Real c = dk * tail[pcol];
        for (Index q = pcol; q < m; ++q)
          col[static_cast<std::size_t>(lrow[q])] -= tail[q] * c;
      }
      continue;
    }

    // Target columns in PAIRS: one pass over the shared tail rows feeds
    // two columns, halving the tail re-streaming (each tk[t] load does
    // two multiplies). Every element still gets its own accumulator with
    // terms subtracted in ascending kk — pairing touches only distinct
    // panel slots (distinct columns), so no element's term sequence or
    // association changes: bitwise identical to the one-column pass.
    Real* SGL_RESTRICT cvec2 = cvec + stats_.panel_max_width;
    Index pcol = 0;
    for (; pcol + 1 < mt; pcol += 2) {
      Real* SGL_RESTRICT base_a =
          panel + static_cast<std::size_t>(rows[pcol] - c0) * str;
      Real* SGL_RESTRICT base_b =
          panel + static_cast<std::size_t>(rows[pcol + 1] - c0) * str;
      for (Index kk = 0; kk < w; ++kk) {
        const Real dk = d_[static_cast<std::size_t>(k0 + kk)];
        cvec[kk] = dk * tails[kk][pcol];
        cvec2[kk] = dk * tails[kk][pcol + 1];
      }
      // The pair's joint row range starts at pcol+1; the first column's
      // lone leading element (q == pcol) is finished scalar first.
      {
        Real acc = base_a[static_cast<std::size_t>(lrow[pcol])];
        for (Index kk = 0; kk < w; ++kk) acc -= tails[kk][pcol] * cvec[kk];
        base_a[static_cast<std::size_t>(lrow[pcol])] = acc;
      }
      const auto pair_pass = [&]<int T>(Index q0) {
        Real acc_a[T];
        Real acc_b[T];
        for (int t = 0; t < T; ++t) {
          const std::size_t slot = static_cast<std::size_t>(lrow[q0 + t]);
          acc_a[t] = base_a[slot];
          acc_b[t] = base_b[slot];
        }
        for (Index kk = 0; kk < w; ++kk) {
          const Real* SGL_RESTRICT tk = tails[kk] + q0;
          const Real ca = cvec[kk];
          const Real cb = cvec2[kk];
          for (int t = 0; t < T; ++t) {
            const Real tv = tk[t];
            acc_a[t] -= tv * ca;
            acc_b[t] -= tv * cb;
          }
        }
        for (int t = 0; t < T; ++t) {
          const std::size_t slot = static_cast<std::size_t>(lrow[q0 + t]);
          base_a[slot] = acc_a[t];
          base_b[slot] = acc_b[t];
        }
      };
      Index q0 = pcol + 1;
      while (q0 < m) {
        const Index left = m - q0;
        if (left >= 8) {
          pair_pass.operator()<8>(q0);
          q0 += 8;
        } else if (left >= 4) {
          pair_pass.operator()<4>(q0);
          q0 += 4;
        } else if (left >= 2) {
          pair_pass.operator()<2>(q0);
          q0 += 2;
        } else {
          pair_pass.operator()<1>(q0);
          q0 += 1;
        }
      }
    }
    for (; pcol < mt; ++pcol) {
      Real* SGL_RESTRICT pcol_base =
          panel + static_cast<std::size_t>(rows[pcol] - c0) * str;
      for (Index kk = 0; kk < w; ++kk)
        cvec[kk] = d_[static_cast<std::size_t>(k0 + kk)] * tails[kk][pcol];
      // Register-blocked rank-w update of column jj over rows q ≥ pcol,
      // tiled with compile-time widths (the la::spmm idiom). The tail
      // reads stream contiguously; the panel slots are gathered through
      // lrow. Per element, terms are subtracted in ascending kk.
      const auto kernel_pass = [&]<int T>(Index q0) {
        Real acc[T];
        for (int t = 0; t < T; ++t)
          acc[t] = pcol_base[static_cast<std::size_t>(lrow[q0 + t])];
        for (Index kk = 0; kk < w; ++kk) {
          const Real* SGL_RESTRICT tk = tails[kk] + q0;
          const Real c = cvec[kk];
          for (int t = 0; t < T; ++t) acc[t] -= tk[t] * c;
        }
        for (int t = 0; t < T; ++t)
          pcol_base[static_cast<std::size_t>(lrow[q0 + t])] = acc[t];
      };
      Index q0 = pcol;
      while (q0 < m) {
        const Index left = m - q0;
        if (left >= 8) {
          kernel_pass.operator()<8>(q0);
          q0 += 8;
        } else if (left >= 4) {
          kernel_pass.operator()<4>(q0);
          q0 += 4;
        } else if (left >= 2) {
          kernel_pass.operator()<2>(q0);
          q0 += 2;
        } else {
          kernel_pass.operator()<1>(q0);
          q0 += 1;
        }
      }
    }
  }

  // --- Right-looking in-panel factorization. ----------------------------
  // Finalizing column kk then pushing its rank-1 update onto the trailing
  // columns subtracts, for every element, its in-panel terms in ascending
  // k — after all external terms, which is exactly the scalar left-
  // looking order (external updaters are all < c0 < in-panel updaters).
  for (Index kk = 0; kk < nc; ++kk) {
    Real* SGL_RESTRICT colk = panel + static_cast<std::size_t>(kk) * str;
    const Real dj = colk[static_cast<std::size_t>(kk)];
    if (!(dj > 0.0)) {
      // Same failure point and message as the scalar path. Scatter the
      // finished columns first so the partially-written factor matches
      // the scalar path's partial state exactly.
      for (Index jj = 0; jj < kk; ++jj) {
        const Index j = c0 + jj;
        Real* dst = l_values_.data() + l_col_ptr[static_cast<std::size_t>(j)];
        const Real* src = panel + static_cast<std::size_t>(jj) * str;
        for (Index r = jj + 1; r < total_rows; ++r)
          *dst++ = src[static_cast<std::size_t>(r)];
      }
      throw NumericalError(
          "CholeskySolver: non-positive pivot at column " +
              std::to_string(perm[static_cast<std::size_t>(c0 + kk)]) +
              " — matrix is not positive definite",
          ErrorCode::kNonPositivePivot);
    }
    d_[static_cast<std::size_t>(c0 + kk)] = dj;
    for (Index r = kk + 1; r < total_rows; ++r)
      colk[static_cast<std::size_t>(r)] /= dj;
    for (Index jj = kk + 1; jj < nc; ++jj)
      cvec[jj] = dj * colk[static_cast<std::size_t>(jj)];
    // Rank-1 trailing update, column at a time: both the multiplier
    // stream (column kk) and the target column are contiguous. Each
    // element takes exactly one term per kk, so the per-element order
    // over ascending kk — and the association — is the scalar's.
    for (Index jj = kk + 1; jj < nc; ++jj) {
      Real* SGL_RESTRICT colj = panel + static_cast<std::size_t>(jj) * str;
      const Real c = cvec[jj];
      for (Index r = jj; r < total_rows; ++r)
        colj[static_cast<std::size_t>(r)] -= colk[static_cast<std::size_t>(r)] * c;
    }
  }

  // Scatter the finished panel into the CSC factor (column patterns are
  // triangle rows then the shared below rows — both ascending, matching
  // the CSC row order, so each column is one contiguous copy).
  for (Index jj = 0; jj < nc; ++jj) {
    const Index j = c0 + jj;
    Real* dst = l_values_.data() + l_col_ptr[static_cast<std::size_t>(j)];
    const Real* src = panel + static_cast<std::size_t>(jj) * str;
    for (Index r = jj + 1; r < total_rows; ++r)
      *dst++ = src[static_cast<std::size_t>(r)];
  }
}

void CholeskySolver::factorize(const la::CsrMatrix& a, Index num_threads) {
  const CholeskySymbolic& sy = *symbolic_;
  stats_ = sy.stats_;
  l_values_.assign(static_cast<std::size_t>(sy.stats_.factor_nnz), 0.0);
  // The input in P a Pᵀ order: one gather through the analysed map.
  std::vector<Real> pv(sy.pa_src_.size());
  const std::vector<Real>& av = a.values();
  for (std::size_t k = 0; k < pv.size(); ++k)
    pv[k] = av[static_cast<std::size_t>(sy.pa_src_[k])];
  run_numeric_phase(pv.data(), num_threads);

  // Contiguous row-major value mirror so the forward sweeps stream
  // instead of chasing r_val_pos_ indirections.
  r_values_.resize(l_values_.size());
  for (std::size_t q = 0; q < r_values_.size(); ++q)
    r_values_[q] = l_values_[static_cast<std::size_t>(sy.r_val_pos_[q])];
}

void CholeskySolver::solve_in_place(la::Vector& x) const {
  const CholeskySymbolic& sy = *symbolic_;
  const Index* const perm = sy.perm_.data();
  const Index* const l_col_ptr = sy.l_col_ptr_.data();
  const Index* const l_row_idx = sy.l_row_idx_.data();
  const Index* const r_row_ptr = sy.r_row_ptr_.data();
  const Index* const r_col_idx = sy.r_col_idx_.data();
  const Index n = sy.n_;
  SGL_EXPECTS(to_index(x.size()) == n, "CholeskySolver::solve: size mismatch");
  // Permute, forward solve L y = b (row gather, ascending columns — the
  // same per-element order as the block sweep), diagonal scale, back
  // solve Lᵀ x = y (column gather), un-permute.
  la::Vector b(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i)
    b[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];

  for (Index i = 0; i < n; ++i) {
    Real acc = b[static_cast<std::size_t>(i)];
    for (Index q = r_row_ptr[static_cast<std::size_t>(i)];
         q < r_row_ptr[static_cast<std::size_t>(i) + 1]; ++q) {
      acc -= r_values_[static_cast<std::size_t>(q)] *
             b[static_cast<std::size_t>(r_col_idx[static_cast<std::size_t>(q)])];
    }
    b[static_cast<std::size_t>(i)] = acc;
  }
  for (Index j = 0; j < n; ++j) b[static_cast<std::size_t>(j)] /= d_[static_cast<std::size_t>(j)];
  for (Index j = n - 1; j >= 0; --j) {
    Real acc = b[static_cast<std::size_t>(j)];
    for (Index p = l_col_ptr[static_cast<std::size_t>(j)];
         p < l_col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      acc -= l_values_[static_cast<std::size_t>(p)] *
             b[static_cast<std::size_t>(l_row_idx[static_cast<std::size_t>(p)])];
    }
    b[static_cast<std::size_t>(j)] = acc;
  }

  for (Index i = 0; i < n; ++i)
    x[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = b[static_cast<std::size_t>(i)];
}

Real CholeskySolver::difference_energy(Index s, Index t) const {
  const CholeskySymbolic& sy = *symbolic_;
  const Index* const inv_perm = sy.inv_perm_.data();
  const Index* const l_col_ptr = sy.l_col_ptr_.data();
  const Index* const l_row_idx = sy.l_row_idx_.data();
  const Index n = sy.n_;
  SGL_EXPECTS(s != t && s >= kInvalidIndex && s < n && t >= kInvalidIndex &&
                  t < n,
              "CholeskySolver::difference_energy: need two distinct indices "
              "(kInvalidIndex for an absent endpoint)");
  // With P A Pᵀ = L D Lᵀ and z = L⁻¹ P b, bᵀ A⁻¹ b = Σ_j z_j² / d_j. A unit
  // right-hand side at column i reaches exactly the elimination-tree path
  // from i to its root, so z lives on the union of the two endpoint paths.
  // Both walks climb (parents have larger indices); stepping whichever is
  // lower visits that union once in ascending order, which is the order a
  // column-oriented forward solve needs. Walks that end at a root park at
  // n. Scratch w holds the pending updates of the reach and is zero
  // again on return: every row column j scatters to is an ancestor of j,
  // so it is on the reach, read later, and cleared when read.
  thread_local std::vector<Real> w;
  if (w.size() < static_cast<std::size_t>(n))
    w.resize(static_cast<std::size_t>(n), 0.0);
  const auto parent = [l_col_ptr, l_row_idx, n](Index j) {
    const Index p = l_col_ptr[static_cast<std::size_t>(j)];
    return p < l_col_ptr[static_cast<std::size_t>(j) + 1]
               ? l_row_idx[static_cast<std::size_t>(p)]
               : n;
  };
  Index a = n;
  Index b = n;
  if (s != kInvalidIndex) {
    a = inv_perm[static_cast<std::size_t>(s)];
    w[static_cast<std::size_t>(a)] = 1.0;
  }
  if (t != kInvalidIndex) {
    b = inv_perm[static_cast<std::size_t>(t)];
    w[static_cast<std::size_t>(b)] = -1.0;
  }

  Real energy = 0.0;
  while (a < n || b < n) {
    const Index j = std::min(a, b);
    const Real z = w[static_cast<std::size_t>(j)];
    w[static_cast<std::size_t>(j)] = 0.0;
    for (Index p = l_col_ptr[static_cast<std::size_t>(j)];
         p < l_col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      w[static_cast<std::size_t>(l_row_idx[static_cast<std::size_t>(p)])] -=
          l_values_[static_cast<std::size_t>(p)] * z;
    }
    energy += z * z / d_[static_cast<std::size_t>(j)];
    if (a == j) a = parent(j);
    if (b == j) b = parent(j);
  }
  return energy;
}

la::Vector CholeskySolver::solve(const la::Vector& b) const {
  la::Vector x = b;
  solve_in_place(x);
  return x;
}

template <int TILE>
void CholeskySolver::solve_block_tile(la::BlockView x, Index col0,
                                      Index num_threads, la::Storage& w) const {
  const CholeskySymbolic& sy = *symbolic_;
  const Index* const perm = sy.perm_.data();
  const Index* const l_col_ptr = sy.l_col_ptr_.data();
  const Index* const l_row_idx = sy.l_row_idx_.data();
  const Index* const r_row_ptr = sy.r_row_ptr_.data();
  const Index* const r_col_idx = sy.r_col_idx_.data();
  const Index* const super_ptr = sy.super_ptr_.data();
  const Index* const level_ptr = sy.level_ptr_.data();
  const Index* const level_supers = sy.level_supers_.data();
  const Index* const panel_ptr = sy.panel_ptr_.data();
  const Index* const super_panel_ptr = sy.super_panel_ptr_.data();
  const std::int64_t* const sweep_work = sy.sweep_work_.data();
  const Index n = sy.n_;
  constexpr std::size_t sb = static_cast<std::size_t>(TILE);
  // How many gather entries ahead of the FMA stream to issue strip
  // prefetches. The index stream is available well before the data is
  // needed, so a short fixed distance hides most of the L2 latency of
  // the scattered strip loads without thrashing L1.
  constexpr Index kPrefetchAhead = 8;
  const Index threads = parallel::resolve_num_threads(num_threads);
  // Levels (and the O(n) passes) below the cutoff run inline.
  const auto inline_work = [](std::int64_t work) {
    return work * TILE < kParallelWork;
  };
  const Index pass_threads = inline_work(n) ? 1 : threads;
  const bool panels = kernel_ == FactorKernel::kSupernodal;
  // Last valid slot of the gather index arrays (r_col_idx and
  // l_row_idx are both factor_nnz long): prefetch indices are clamped
  // here so lookahead never reads past the arrays.
  const Index qmax =
      sy.stats_.factor_nnz == 0 ? 0 : sy.stats_.factor_nnz - 1;

  // Row-major scratch (64-byte aligned la::Storage): the TILE right-hand-
  // side values of one (permuted) row sit contiguously, so every gathered
  // factor entry touches one strip; the compile-time tile width keeps the
  // strip updates in registers and vectorized.
  w.resize(static_cast<std::size_t>(n) * sb);
  parallel::parallel_for(0, n, pass_threads, [&](Index i) {
    Real* dst = w.data() + static_cast<std::size_t>(i) * sb;
    const Index src = perm[static_cast<std::size_t>(i)];
    for (int c = 0; c < TILE; ++c) dst[c] = x.at(src, col0 + c);
  });

  // Both sweeps apply, for every output element, the same terms in the
  // same fixed order as the scalar path, so scheduling never changes a
  // bit. Within a level the blocks touch disjoint rows; across levels
  // the level loop is the barrier. Under the supernodal kernel the
  // sweeps route through the panels (DESIGN.md §9): each gather list
  // splits at the panel boundary into a scattered external part —
  // software-prefetched kPrefetchAhead entries ahead — and a dense
  // in-panel segment whose strips are CONTIGUOUS in the scratch, so the
  // segment streams pointer-incremented cache lines with no index
  // loads. Per element the terms still arrive in the scalar order on a
  // single register accumulator chain — bitwise identical.
  const Index num_levels = sy.stats_.num_levels;
  // Forward: L Y = B, levels ascending, block columns ascending.
  for (Index l = 0; l < num_levels; ++l) {
    const Index lo = level_ptr[static_cast<std::size_t>(l)];
    const Index hi = level_ptr[static_cast<std::size_t>(l) + 1];
    const auto sweep = [&](Index slo, Index shi, Index /*slot*/) {
      for (Index si = slo; si < shi; ++si) {
        const Index s = level_supers[static_cast<std::size_t>(si)];
        if (panels) {
          for (Index p = super_panel_ptr[static_cast<std::size_t>(s)];
               p < super_panel_ptr[static_cast<std::size_t>(s) + 1]; ++p) {
            const Index c0 = panel_ptr[static_cast<std::size_t>(p)];
            const Index c1 = panel_ptr[static_cast<std::size_t>(p) + 1];
            for (Index i = c0; i < c1; ++i) {
              Real* SGL_RESTRICT wi =
                  w.data() + static_cast<std::size_t>(i) * sb;
              Real acc[TILE];
              for (int c = 0; c < TILE; ++c) acc[c] = wi[c];
              // Row i's ascending gather list ends with its dense
              // in-panel segment (columns c0..i−1 — the fundamental-
              // panel pattern), so the scattered external gathers stop
              // at qsplit and the tail streams contiguous strips with
              // no index loads. Same terms, same order, same single
              // accumulator chain as the scalar path — bitwise equal.
              const Index dense = i - c0;
              const Index qsplit =
                  r_row_ptr[static_cast<std::size_t>(i) + 1] - dense;
              for (Index q = r_row_ptr[static_cast<std::size_t>(i)];
                   q < qsplit; ++q) {
                const Index qq =
                    q + kPrefetchAhead < qmax ? q + kPrefetchAhead : qmax;
                SGL_PREFETCH(
                    w.data() +
                    static_cast<std::size_t>(
                        r_col_idx[static_cast<std::size_t>(qq)]) *
                        sb);
                const Real v = r_values_[static_cast<std::size_t>(q)];
                const Real* wk =
                    w.data() +
                    static_cast<std::size_t>(
                        r_col_idx[static_cast<std::size_t>(q)]) *
                        sb;
                for (int c = 0; c < TILE; ++c) acc[c] -= v * wk[c];
              }
              const Real* SGL_RESTRICT rv =
                  r_values_.data() + static_cast<std::size_t>(qsplit);
              const Real* SGL_RESTRICT ws =
                  w.data() + static_cast<std::size_t>(c0) * sb;
              for (Index t = 0; t < dense; ++t) {
                const Real v = rv[t];
                const Real* wk = ws + static_cast<std::size_t>(t) * sb;
                for (int c = 0; c < TILE; ++c) acc[c] -= v * wk[c];
              }
              for (int c = 0; c < TILE; ++c) wi[c] = acc[c];
            }
          }
          continue;
        }
        for (Index i = super_ptr[static_cast<std::size_t>(s)];
             i < super_ptr[static_cast<std::size_t>(s) + 1]; ++i) {
          Real* SGL_RESTRICT wi = w.data() + static_cast<std::size_t>(i) * sb;
          for (Index q = r_row_ptr[static_cast<std::size_t>(i)];
               q < r_row_ptr[static_cast<std::size_t>(i) + 1]; ++q) {
            const Real v = r_values_[static_cast<std::size_t>(q)];
            const Real* wk =
                w.data() +
                static_cast<std::size_t>(r_col_idx[static_cast<std::size_t>(q)]) * sb;
            for (int c = 0; c < TILE; ++c) wi[c] -= v * wk[c];
          }
        }
      }
    };
    if (threads == 1 || hi - lo == 1 ||
        inline_work(sweep_work[static_cast<std::size_t>(l)])) {
      sweep(lo, hi, 0);
    } else {
      parallel::parallel_for_slots(lo, hi, threads, sweep);
    }
  }

  // Diagonal: D Z = Y. Divides (not multiply-by-reciprocal) to stay
  // bitwise equal to the scalar path.
  parallel::parallel_for(0, n, pass_threads, [&](Index i) {
    Real* wi = w.data() + static_cast<std::size_t>(i) * sb;
    const Real dv = d_[static_cast<std::size_t>(i)];
    for (int c = 0; c < TILE; ++c) wi[c] /= dv;
  });

  // Backward: Lᵀ X = Z, levels descending, block columns descending
  // (ancestors inside a block come later in column order).
  for (Index l = num_levels - 1; l >= 0; --l) {
    const Index lo = level_ptr[static_cast<std::size_t>(l)];
    const Index hi = level_ptr[static_cast<std::size_t>(l) + 1];
    const auto sweep = [&](Index slo, Index shi, Index /*slot*/) {
      for (Index si = slo; si < shi; ++si) {
        const Index s = level_supers[static_cast<std::size_t>(si)];
        if (panels) {
          // Panels descending; inside one, columns descending. A
          // column's CSC gather splits at the panel boundary: the dense
          // triangle prefix (rows j+1..c1−1, just-finalized CONTIGUOUS
          // strips — streamed with no index loads) and the shared below
          // tail (scattered gathers, prefetched ahead). The term
          // sequence per column is the CSC gather order — triangle rows
          // ascending, then below rows ascending — exactly the
          // scalar's, on the same accumulator chain.
          for (Index p = super_panel_ptr[static_cast<std::size_t>(s) + 1] - 1;
               p >= super_panel_ptr[static_cast<std::size_t>(s)]; --p) {
            const Index c0 = panel_ptr[static_cast<std::size_t>(p)];
            const Index c1 = panel_ptr[static_cast<std::size_t>(p) + 1];
            for (Index j = c1 - 1; j >= c0; --j) {
              Real* SGL_RESTRICT wj =
                  w.data() + static_cast<std::size_t>(j) * sb;
              Real acc[TILE];
              for (int c = 0; c < TILE; ++c) acc[c] = wj[c];
              const Real* SGL_RESTRICT lv =
                  l_values_.data() +
                  static_cast<std::size_t>(
                      l_col_ptr[static_cast<std::size_t>(j)]);
              const Index tri = c1 - 1 - j;
              const Real* SGL_RESTRICT wt =
                  w.data() + static_cast<std::size_t>(j + 1) * sb;
              for (Index r = 0; r < tri; ++r) {
                const Real v = lv[r];
                for (int c = 0; c < TILE; ++c)
                  acc[c] -= v * wt[static_cast<std::size_t>(r) * sb + c];
              }
              const Index qb = l_col_ptr[static_cast<std::size_t>(j)] + tri;
              const Index qe = l_col_ptr[static_cast<std::size_t>(j) + 1];
              for (Index q = qb; q < qe; ++q) {
                const Index qq =
                    q + kPrefetchAhead < qmax ? q + kPrefetchAhead : qmax;
                SGL_PREFETCH(
                    w.data() +
                    static_cast<std::size_t>(
                        l_row_idx[static_cast<std::size_t>(qq)]) *
                        sb);
                const Real v = l_values_[static_cast<std::size_t>(q)];
                const Real* wi =
                    w.data() +
                    static_cast<std::size_t>(
                        l_row_idx[static_cast<std::size_t>(q)]) *
                        sb;
                for (int c = 0; c < TILE; ++c) acc[c] -= v * wi[c];
              }
              for (int c = 0; c < TILE; ++c) wj[c] = acc[c];
            }
          }
          continue;
        }
        for (Index j = super_ptr[static_cast<std::size_t>(s) + 1] - 1;
             j >= super_ptr[static_cast<std::size_t>(s)]; --j) {
          Real* SGL_RESTRICT wj = w.data() + static_cast<std::size_t>(j) * sb;
          for (Index p = l_col_ptr[static_cast<std::size_t>(j)];
               p < l_col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
            const Real v = l_values_[static_cast<std::size_t>(p)];
            const Real* wi =
                w.data() +
                static_cast<std::size_t>(l_row_idx[static_cast<std::size_t>(p)]) * sb;
            for (int c = 0; c < TILE; ++c) wj[c] -= v * wi[c];
          }
        }
      }
    };
    if (threads == 1 || hi - lo == 1 ||
        inline_work(sweep_work[static_cast<std::size_t>(l)])) {
      sweep(lo, hi, 0);
    } else {
      parallel::parallel_for_slots(lo, hi, threads, sweep);
    }
  }

  parallel::parallel_for(0, n, pass_threads, [&](Index i) {
    const Real* src = w.data() + static_cast<std::size_t>(i) * sb;
    const Index dst = perm[static_cast<std::size_t>(i)];
    for (int c = 0; c < TILE; ++c) x.at(dst, col0 + c) = src[c];
  });
}

void CholeskySolver::solve_in_place_block(la::BlockView x,
                                          Index num_threads) const {
  const CholeskySymbolic& sy = *symbolic_;
  const Index n = sy.n_;
  SGL_EXPECTS(x.rows == n, "CholeskySolver::solve_in_place_block: size mismatch");
  if (x.cols == 0 || n == 0) return;
  // Tile dispatch (8, then 4/2/1 tails — the spmm group pattern): each
  // tile streams the factor once per sweep with a compile-time-width
  // inner loop. Columns never interact, so tiling cannot change a bit.
  la::Storage w;
  Index g0 = 0;
  while (g0 < x.cols) {
    const Index left = x.cols - g0;
    if (left >= 8) {
      solve_block_tile<8>(x, g0, num_threads, w);
      g0 += 8;
    } else if (left >= 4) {
      solve_block_tile<4>(x, g0, num_threads, w);
      g0 += 4;
    } else if (left >= 2) {
      solve_block_tile<2>(x, g0, num_threads, w);
      g0 += 2;
    } else {
      solve_block_tile<1>(x, g0, num_threads, w);
      g0 += 1;
    }
  }
}

}  // namespace sgl::solver
