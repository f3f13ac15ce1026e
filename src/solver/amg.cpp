#include "solver/amg.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "la/dense_solve.hpp"

namespace sgl::solver {

namespace {

/// Greedy Vaněk-style aggregation over the strength graph.
/// Returns aggregate ids (contiguous from 0) for every node.
std::vector<Index> aggregate_nodes(const la::CsrMatrix& a, Real theta,
                                   Index& num_aggregates) {
  const Index n = a.rows();
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vv = a.values();

  // Strong-neighbor test threshold per row.
  la::Vector row_max(static_cast<std::size_t>(n), 0.0);
  for (Index i = 0; i < n; ++i) {
    Real m = 0.0;
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      if (ci[static_cast<std::size_t>(k)] != i)
        m = std::max(m, std::abs(vv[static_cast<std::size_t>(k)]));
    }
    row_max[static_cast<std::size_t>(i)] = m;
  }
  const auto strong = [&](Index i, Index k) {
    const Index j = ci[static_cast<std::size_t>(k)];
    return j != i && std::abs(vv[static_cast<std::size_t>(k)]) >=
                         theta * row_max[static_cast<std::size_t>(i)];
  };

  std::vector<Index> agg(static_cast<std::size_t>(n), kInvalidIndex);
  num_aggregates = 0;

  // Pass 1: seed aggregates around nodes whose strong neighborhood is
  // entirely unclaimed.
  for (Index i = 0; i < n; ++i) {
    if (agg[static_cast<std::size_t>(i)] != kInvalidIndex) continue;
    bool free_nbhd = true;
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1] && free_nbhd; ++k) {
      if (strong(i, k) &&
          agg[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])] !=
              kInvalidIndex)
        free_nbhd = false;
    }
    if (!free_nbhd) continue;
    const Index id = num_aggregates++;
    agg[static_cast<std::size_t>(i)] = id;
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      if (strong(i, k))
        agg[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])] = id;
    }
  }

  // Pass 2: attach leftovers to the strongest neighboring aggregate.
  for (Index i = 0; i < n; ++i) {
    if (agg[static_cast<std::size_t>(i)] != kInvalidIndex) continue;
    Real best = -1.0;
    Index best_agg = kInvalidIndex;
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const Index j = ci[static_cast<std::size_t>(k)];
      if (j == i || agg[static_cast<std::size_t>(j)] == kInvalidIndex) continue;
      const Real s = std::abs(vv[static_cast<std::size_t>(k)]);
      if (s > best) {
        best = s;
        best_agg = agg[static_cast<std::size_t>(j)];
      }
    }
    if (best_agg != kInvalidIndex) {
      agg[static_cast<std::size_t>(i)] = best_agg;
    } else {
      // Isolated node (no neighbors at all): its own aggregate.
      agg[static_cast<std::size_t>(i)] = num_aggregates++;
    }
  }
  return agg;
}

la::CsrMatrix build_prolongation(const std::vector<Index>& agg,
                                 Index num_aggregates) {
  std::vector<la::Triplet> triplets;
  triplets.reserve(agg.size());
  for (std::size_t i = 0; i < agg.size(); ++i)
    triplets.push_back({to_index(i), agg[i], 1.0});
  return la::CsrMatrix::from_triplets(to_index(agg.size()), num_aggregates,
                                      triplets);
}

}  // namespace

AmgHierarchy::AmgHierarchy(const la::CsrMatrix& a, const AmgOptions& options)
    : options_(options) {
  SGL_EXPECTS(a.rows() == a.cols(), "AmgHierarchy: matrix must be square");
  SGL_EXPECTS(options.theta >= 0.0 && options.theta <= 1.0,
              "AmgHierarchy: theta out of [0, 1]");

  levels_.push_back({a, a.diagonal(), {}, {}});
  while (to_index(levels_.size()) < options_.max_levels &&
         levels_.back().a.rows() > options_.coarse_size) {
    const la::CsrMatrix& fine = levels_.back().a;
    Index nc = 0;
    std::vector<Index> agg = aggregate_nodes(fine, options_.theta, nc);
    if (nc >= fine.rows()) break;  // aggregation stalled; stop coarsening
    la::CsrMatrix p = build_prolongation(agg, nc);
    la::CsrMatrix coarse = la::spgemm(p.transposed(), la::spgemm(fine, p));
    levels_.push_back({std::move(coarse), {}, std::move(p), std::move(agg)});
    levels_.back().diag = levels_.back().a.diagonal();
  }

  // Dense factor of the coarsest operator. The shift floor regularizes the
  // near-null constant mode if the input was a barely-grounded Laplacian.
  const la::CsrMatrix& coarsest = levels_.back().a;
  const Index nc = coarsest.rows();
  coarse_factor_ = la::DenseMatrix(nc, nc);
  const auto& rp = coarsest.row_ptr();
  const auto& ci = coarsest.col_idx();
  const auto& vv = coarsest.values();
  for (Index i = 0; i < nc; ++i)
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      coarse_factor_(i, ci[static_cast<std::size_t>(k)]) =
          vv[static_cast<std::size_t>(k)];
  la::dense_ldlt_factor(coarse_factor_, 1e-12);
}

Index AmgHierarchy::size() const noexcept { return levels_.front().a.rows(); }

Real AmgHierarchy::operator_complexity() const {
  Real total = 0.0;
  for (const Level& level : levels_) total += static_cast<Real>(level.a.nnz());
  return total / static_cast<Real>(levels_.front().a.nnz());
}

void AmgHierarchy::smooth(const Level& level, const la::Vector& rhs,
                          la::Vector& x, bool forward) const {
  const la::CsrMatrix& a = level.a;
  const Index n = a.rows();
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vv = a.values();
  const auto relax_row = [&](Index i) {
    Real acc = rhs[static_cast<std::size_t>(i)];
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const Index j = ci[static_cast<std::size_t>(k)];
      if (j != i)
        acc -= vv[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(j)];
    }
    x[static_cast<std::size_t>(i)] =
        acc / level.diag[static_cast<std::size_t>(i)];
  };
  if (forward) {
    for (Index i = 0; i < n; ++i) relax_row(i);
  } else {
    for (Index i = n - 1; i >= 0; --i) relax_row(i);
  }
}

void AmgHierarchy::cycle(std::size_t depth, const la::Vector& rhs,
                         la::Vector& x) const {
  const Level& level = levels_[depth];
  if (depth + 1 == levels_.size()) {
    x = la::dense_ldlt_solve(coarse_factor_, rhs);
    return;
  }

  x.assign(rhs.size(), 0.0);
  // Symmetric smoothing: forward sweeps down-cycle, backward sweeps
  // up-cycle keep the V-cycle a symmetric operator.
  for (Index s = 0; s < options_.pre_smooth; ++s)
    smooth(level, rhs, x, /*forward=*/true);

  la::Vector residual(rhs.size());
  level.a.multiply(x, residual);
  for (std::size_t i = 0; i < rhs.size(); ++i)
    residual[i] = rhs[i] - residual[i];

  const Level& next = levels_[depth + 1];
  la::Vector coarse_rhs = next.p.multiply_transposed(residual);
  la::Vector coarse_x;
  cycle(depth + 1, coarse_rhs, coarse_x);

  la::Vector correction = next.p.multiply(coarse_x);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += correction[i];

  for (Index s = 0; s < options_.post_smooth; ++s)
    smooth(level, rhs, x, /*forward=*/false);
}

void AmgHierarchy::v_cycle(const la::Vector& r, la::Vector& z) const {
  SGL_EXPECTS(to_index(r.size()) == size(), "v_cycle: size mismatch");
  cycle(0, r, z);
}

// --- block V-cycle ---------------------------------------------------------
//
// The block flavour keeps b right-hand sides packed row-major (one
// contiguous b-strip per matrix row) so every streamed matrix entry
// updates one strip. Per column the operation order is exactly the
// scalar cycle()'s: Gauss–Seidel rows in the same sequence, residual row
// sums in nonzero order, the restriction's zero-skip and fixed-chunk
// combine reproduced from CsrMatrix::multiply_transposed — that is what
// makes a block column bitwise equal to the scalar V-cycle on that column
// alone.

void AmgHierarchy::smooth_block(const Level& level, const std::vector<Real>& rhs,
                                std::vector<Real>& x, Index b,
                                bool forward) const {
  const la::CsrMatrix& a = level.a;
  const Index n = a.rows();
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vv = a.values();
  const std::size_t sb = static_cast<std::size_t>(b);
  // Gauss–Seidel is sequential across rows by construction; the j ≠ i
  // guard means row i's strip can accumulate in place.
  const auto relax_row = [&](Index i) {
    Real* xi = x.data() + static_cast<std::size_t>(i) * sb;
    const Real* ri = rhs.data() + static_cast<std::size_t>(i) * sb;
    for (Index c = 0; c < b; ++c) xi[c] = ri[c];
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const Index j = ci[static_cast<std::size_t>(k)];
      if (j == i) continue;
      const Real v = vv[static_cast<std::size_t>(k)];
      const Real* xj = x.data() + static_cast<std::size_t>(j) * sb;
      for (Index c = 0; c < b; ++c) xi[c] -= v * xj[c];
    }
    const Real d = level.diag[static_cast<std::size_t>(i)];
    for (Index c = 0; c < b; ++c) xi[c] /= d;
  };
  if (forward) {
    for (Index i = 0; i < n; ++i) relax_row(i);
  } else {
    for (Index i = n - 1; i >= 0; --i) relax_row(i);
  }
}

void AmgHierarchy::cycle_block(std::size_t depth, const std::vector<Real>& rhs,
                               std::vector<Real>& x, Index b,
                               Index num_threads) const {
  const Level& level = levels_[depth];
  const Index n = level.a.rows();
  const std::size_t sb = static_cast<std::size_t>(b);

  if (depth + 1 == levels_.size()) {
    // Dense coarse solve per column — the coarsest operator is ≤
    // options_.coarse_size wide, so the per-column solves are negligible
    // and identical to the scalar path's.
    x.assign(static_cast<std::size_t>(n) * sb, 0.0);
    la::Vector rj(static_cast<std::size_t>(n));
    for (Index c = 0; c < b; ++c) {
      for (Index i = 0; i < n; ++i)
        rj[static_cast<std::size_t>(i)] =
            rhs[static_cast<std::size_t>(i) * sb + static_cast<std::size_t>(c)];
      const la::Vector xj = la::dense_ldlt_solve(coarse_factor_, rj);
      for (Index i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i) * sb + static_cast<std::size_t>(c)] =
            xj[static_cast<std::size_t>(i)];
    }
    return;
  }

  x.assign(static_cast<std::size_t>(n) * sb, 0.0);
  for (Index s = 0; s < options_.pre_smooth; ++s)
    smooth_block(level, rhs, x, b, /*forward=*/true);

  // residual = rhs − A x; each row's strip is a fixed-order sum over the
  // row's nonzeros followed by one subtraction, exactly like the scalar
  // multiply-then-subtract.
  std::vector<Real> residual(static_cast<std::size_t>(n) * sb);
  {
    const auto& rp = level.a.row_ptr();
    const auto& ci = level.a.col_idx();
    const auto& vv = level.a.values();
    parallel::parallel_for_slots(
        0, n, num_threads, [&](Index lo, Index hi, Index /*slot*/) {
          for (Index i = lo; i < hi; ++i) {
            Real* res_i = residual.data() + static_cast<std::size_t>(i) * sb;
            for (Index c = 0; c < b; ++c) res_i[c] = 0.0;
            for (Index k = rp[static_cast<std::size_t>(i)];
                 k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
              const Real v = vv[static_cast<std::size_t>(k)];
              const Real* xj =
                  x.data() +
                  static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]) * sb;
              for (Index c = 0; c < b; ++c) res_i[c] += v * xj[c];
            }
            const Real* rhs_i = rhs.data() + static_cast<std::size_t>(i) * sb;
            for (Index c = 0; c < b; ++c) res_i[c] = rhs_i[c] - res_i[c];
          }
        });
  }

  const Level& next = levels_[depth + 1];
  const la::CsrMatrix& p = next.p;
  const Index nc = p.cols();

  // coarse_rhs = Pᵀ residual — the shared b-wide mirror of
  // CsrMatrix::multiply_transposed (zero-skip, ascending-row scatter,
  // fixed-chunk ordered combine), kept next to the scalar kernel so the
  // two cannot drift apart.
  std::vector<Real> coarse_rhs(static_cast<std::size_t>(nc) * sb);
  la::detail::spmm_transposed_row_major(p, residual.data(), coarse_rhs.data(),
                                        b, num_threads);

  std::vector<Real> coarse_x;
  cycle_block(depth + 1, coarse_rhs, coarse_x, b, num_threads);

  // correction = P coarse_x; x += correction (row gather, b-wide).
  {
    const auto& rp = p.row_ptr();
    const auto& ci = p.col_idx();
    const auto& vv = p.values();
    parallel::parallel_for_slots(
        0, n, num_threads, [&](Index lo, Index hi, Index /*slot*/) {
          std::vector<Real> corr(sb);
          for (Index i = lo; i < hi; ++i) {
            for (Index c = 0; c < b; ++c) corr[static_cast<std::size_t>(c)] = 0.0;
            for (Index k = rp[static_cast<std::size_t>(i)];
                 k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
              const Real v = vv[static_cast<std::size_t>(k)];
              const Real* cx =
                  coarse_x.data() +
                  static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]) * sb;
              for (Index c = 0; c < b; ++c)
                corr[static_cast<std::size_t>(c)] += v * cx[c];
            }
            Real* xi = x.data() + static_cast<std::size_t>(i) * sb;
            for (Index c = 0; c < b; ++c)
              xi[c] += corr[static_cast<std::size_t>(c)];
          }
        });
  }

  for (Index s = 0; s < options_.post_smooth; ++s)
    smooth_block(level, rhs, x, b, /*forward=*/false);
}

void AmgHierarchy::v_cycle_block(la::ConstBlockView r, la::BlockView z,
                                 Index num_threads) const {
  const Index n = size();
  SGL_EXPECTS(r.rows == n && z.rows == n,
              "v_cycle_block: row count mismatch");
  SGL_EXPECTS(r.cols == z.cols, "v_cycle_block: column count mismatch");
  const Index b = r.cols;
  if (b == 0 || n == 0) return;
  const std::size_t sb = static_cast<std::size_t>(b);

  std::vector<Real> rhs(static_cast<std::size_t>(n) * sb);
  parallel::parallel_for(0, n, num_threads, [&](Index i) {
    Real* ri = rhs.data() + static_cast<std::size_t>(i) * sb;
    for (Index c = 0; c < b; ++c) ri[c] = r.at(i, c);
  });

  std::vector<Real> x;
  cycle_block(0, rhs, x, b, num_threads);

  parallel::parallel_for(0, n, num_threads, [&](Index i) {
    const Real* xi = x.data() + static_cast<std::size_t>(i) * sb;
    for (Index c = 0; c < b; ++c) z.at(i, c) = xi[c];
  });
}

}  // namespace sgl::solver
