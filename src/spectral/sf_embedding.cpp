#include "spectral/sf_embedding.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "eig/dense_eig.hpp"
#include "graph/coarsening.hpp"
#include "la/multi_vector.hpp"

namespace sgl::spectral {
namespace {

/// rows × columns below which a level's Jacobi sweeps run on the calling
/// thread: on coarse levels pool dispatch costs more than the sweep (with
/// every level on the pool, the 4-thread loop ran slower than the
/// 1-thread one). Purely a scheduling threshold — the smoothed block is
/// bitwise the same either way. Re-measured for the fused sweep at the
/// default 8 test vectors: inline and 4-thread sweeps tie near 3000 rows
/// and the pool wins from 4096 rows on (DESIGN.md §6), so 32768 stays.
constexpr std::int64_t kInlineSmoothWork = 32768;

/// Row-major ping-pong buffers for jacobi_smooth, sized once for the
/// finest level; coarser levels use a prefix.
struct SmoothScratch {
  la::Storage a;
  la::Storage b;
};

/// One weighted-Jacobi row update on columns [j0, j0 + TILE) of a
/// row-major block (stride t): dst_i = src_i − ω (L src)_i / d_i. (L src)_i
/// is summed from zero in CSR order — exactly the la::spmm sum — and a row
/// with d_i ≤ 0 is copied. The compile-time TILE keeps the accumulators in
/// registers (the la::spmm idiom); src and dst are offset by j0.
template <int TILE>
void jacobi_row(const Index* SGL_RESTRICT cols, const Real* SGL_RESTRICT vals,
                Index k_lo, Index k_hi, const Real* SGL_RESTRICT src,
                Real* SGL_RESTRICT dst, std::size_t stride, std::size_t row,
                Real d, Real omega) {
  Real acc[TILE] = {};
  for (Index k = k_lo; k < k_hi; ++k) {
    const Real av = vals[k];
    const Real* SGL_RESTRICT xr =
        src + static_cast<std::size_t>(cols[k]) * stride;
    for (int jj = 0; jj < TILE; ++jj) acc[jj] += av * xr[jj];
  }
  const Real* SGL_RESTRICT xi = src + row * stride;
  Real* SGL_RESTRICT yi = dst + row * stride;
  if (d > 0.0) {
    for (int jj = 0; jj < TILE; ++jj) yi[jj] = xi[jj] - omega * acc[jj] / d;
  } else {
    for (int jj = 0; jj < TILE; ++jj) yi[jj] = xi[jj];
  }
}

/// `sweeps` weighted-Jacobi sweeps X ← X − ω D⁻¹ (L X) on one level whose
/// Laplacian and weighted degrees the caller assembled once. X is packed
/// row-major once, each sweep is one fused pass (gather L X, update) from
/// one scratch buffer into the other, and the result is unpacked once.
/// Every entry is the same fixed-order expression as the historical
/// spmm-then-update formulation, so the block is bitwise identical to it
/// for every thread count; levels below kInlineSmoothWork run inline.
void jacobi_smooth(const la::CsrMatrix& lap, const la::Vector& deg,
                   la::MultiVector& x, SmoothScratch& scratch, Index sweeps,
                   Real omega, Index num_threads) {
  const Index n = x.rows();
  const Index t = x.cols();
  const std::size_t stride = static_cast<std::size_t>(t);
  const Index threads =
      std::int64_t{n} * t < kInlineSmoothWork ? 1 : num_threads;
  Real* src = scratch.a.data();
  Real* dst = scratch.b.data();
  Real* const xd = x.data().data();
  const std::size_t ld = static_cast<std::size_t>(n);

  parallel::parallel_for_slots(0, n, threads, [&](Index lo, Index hi, Index) {
    for (Index i = lo; i < hi; ++i)
      for (Index j = 0; j < t; ++j)
        src[static_cast<std::size_t>(i) * stride + static_cast<std::size_t>(j)] =
            xd[static_cast<std::size_t>(j) * ld + static_cast<std::size_t>(i)];
  });

  const Index* cols = lap.col_idx().data();
  const Real* vals = lap.values().data();
  const Index* row_ptr = lap.row_ptr().data();
  for (Index sweep = 0; sweep < sweeps; ++sweep) {
    parallel::parallel_for_slots(
        0, n, threads, [&](Index lo, Index hi, Index) {
          for (Index i = lo; i < hi; ++i) {
            const Index k_lo = row_ptr[i];
            const Index k_hi = row_ptr[i + 1];
            const Real d = deg[static_cast<std::size_t>(i)];
            const auto row = static_cast<std::size_t>(i);
            Index j0 = 0;
            for (; j0 + 8 <= t; j0 += 8)
              jacobi_row<8>(cols, vals, k_lo, k_hi, src + j0, dst + j0,
                            stride, row, d, omega);
            if (j0 + 4 <= t) {
              jacobi_row<4>(cols, vals, k_lo, k_hi, src + j0, dst + j0,
                            stride, row, d, omega);
              j0 += 4;
            }
            if (j0 + 2 <= t) {
              jacobi_row<2>(cols, vals, k_lo, k_hi, src + j0, dst + j0,
                            stride, row, d, omega);
              j0 += 2;
            }
            if (j0 < t)
              jacobi_row<1>(cols, vals, k_lo, k_hi, src + j0, dst + j0,
                            stride, row, d, omega);
          }
        });
    std::swap(src, dst);
  }

  parallel::parallel_for_slots(0, n, threads, [&](Index lo, Index hi, Index) {
    for (Index j = 0; j < t; ++j)
      for (Index i = lo; i < hi; ++i)
        xd[static_cast<std::size_t>(j) * ld + static_cast<std::size_t>(i)] =
            src[static_cast<std::size_t>(i) * stride + static_cast<std::size_t>(j)];
  });
}

/// Assembles a level's Laplacian and weighted degrees (once per level)
/// and smooths the block on it. Returns the Laplacian so the finest level
/// can reuse it for the Rayleigh–Ritz projection.
la::CsrMatrix smooth_level(const graph::Graph& level, la::MultiVector& x,
                           SmoothScratch& scratch, const SfEmbeddingOptions& sf) {
  la::CsrMatrix lap = level.laplacian();
  jacobi_smooth(lap, level.weighted_degrees(), x, scratch, sf.smoother_sweeps,
                sf.jacobi_weight, sf.num_threads);
  return lap;
}

/// Deflates the constant nullspace and orthonormalizes the block by
/// serial modified Gram–Schmidt. Serial on purpose: t is tiny, the
/// O(n·t²) cost is dwarfed by smoothing, and a fixed operation order is
/// the cheapest way to keep the basis bit-identical across thread counts.
void center_and_orthonormalize(la::MultiVector& x, Index num_threads) {
  la::center_columns(x.view(), num_threads);
  const Index n = x.rows();
  const Index t = x.cols();
  for (Index j = 0; j < t; ++j) {
    auto xj = x.col(j);
    for (Index i = 0; i < j; ++i) {
      const auto xi = x.col(i);
      Real dot = 0.0;
      for (Index row = 0; row < n; ++row) dot += xi[row] * xj[row];
      for (Index row = 0; row < n; ++row) xj[row] -= dot * xi[row];
    }
    Real norm2 = 0.0;
    for (Index row = 0; row < n; ++row) norm2 += xj[row] * xj[row];
    const Real norm = std::sqrt(norm2);
    SGL_ENSURES(norm > 0.0,
                "compute_sf_embedding: test block lost rank; lower "
                "smoother_sweeps or num_test_vectors");
    const Real inv = 1.0 / norm;
    for (Index row = 0; row < n; ++row) xj[row] *= inv;
  }
}

}  // namespace

Embedding compute_sf_embedding(const graph::Graph& g,
                               const EmbeddingOptions& options) {
  SGL_EXPECTS(options.r >= 2, "compute_sf_embedding: r must be at least 2");
  SGL_EXPECTS(options.sigma2 > 0.0,
              "compute_sf_embedding: sigma2 must be positive");
  const SfEmbeddingOptions& sf = options.sf;
  SGL_EXPECTS(sf.smoother_sweeps >= 1,
              "compute_sf_embedding: smoother_sweeps must be positive");
  SGL_EXPECTS(sf.jacobi_weight > 0.0 && sf.jacobi_weight <= 1.0,
              "compute_sf_embedding: jacobi_weight must be in (0, 1]");
  SGL_EXPECTS(sf.coarsest_size >= 2,
              "compute_sf_embedding: coarsest_size must be at least 2");
  const Index n = g.num_nodes();
  SGL_EXPECTS(n >= 2, "compute_sf_embedding: graph too small");
  const Index threads = sf.num_threads;

  const Index dims = std::min(options.r - 1, n - 1);
  const Index requested =
      sf.num_test_vectors > 0 ? sf.num_test_vectors : dims + 4;
  // t test vectors span the Rayleigh–Ritz subspace; at least dims, at
  // most n − 1 (the non-constant directions available).
  const Index t = std::min(std::max(requested, dims), n - 1);

  // The coarsest level must hold t non-constant directions, otherwise the
  // prolonged block cannot have full rank. Trim any hierarchy tail that
  // over-coarsened past that floor.
  graph::CoarseningHierarchy hierarchy = graph::build_coarsening_hierarchy(
      g, std::max(sf.coarsest_size, t + 1), sf.seed);
  while (!hierarchy.levels.empty() &&
         hierarchy.levels.back().graph.num_nodes() < t + 1)
    hierarchy.levels.pop_back();

  // Seeded serial fill of the coarsest test block, in column-major order:
  // the RNG stream never sees the thread count. The seed is decorrelated
  // from the hierarchy's matching seeds by a splitmix-style offset.
  const graph::Graph& coarsest = hierarchy.coarsest(g);
  Rng rng(sf.seed ^ 0x9e3779b97f4a7c15ull);
  la::MultiVector x(coarsest.num_nodes(), t);
  for (Real& v : x.data()) v = rng.normal();

  // Sized for the finest level, the largest; coarser levels use a prefix.
  SmoothScratch scratch;
  scratch.a.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(t));
  scratch.b.resize(scratch.a.size());
  la::CsrMatrix lap = smooth_level(coarsest, x, scratch, sf);
  center_and_orthonormalize(x, threads);
  Index total_sweeps = sf.smoother_sweeps;

  // Walk the hierarchy back to the input graph: prolong, smooth,
  // re-orthonormalize. Re-orthonormalizing at every level keeps the block
  // well-conditioned no matter how aggressively the smoother contracts it
  // toward the low eigenspace.
  for (std::size_t k = hierarchy.levels.size(); k-- > 0;) {
    const graph::Graph& fine = (k == 0) ? g : hierarchy.levels[k - 1].graph;
    const std::vector<Index>& map = hierarchy.levels[k].fine_to_coarse;
    la::MultiVector fine_x(fine.num_nodes(), t);
    la::gather_rows(x.view(), map, fine_x.view(), threads);
    x = std::move(fine_x);
    lap = smooth_level(fine, x, scratch, sf);
    center_and_orthonormalize(x, threads);
    total_sweeps += sf.smoother_sweeps;
  }

  // One Rayleigh–Ritz projection at the finest level: T = Xᵀ L X over the
  // orthonormal basis, a t × t dense eigenproblem. The Ritz values give
  // the eigenvalue scale the eq. 12 column weighting needs — this is what
  // lets the solver-free embedding rank edges interchangeably with the
  // exact engine. The last level smoothed was g itself, so `lap` is its
  // Laplacian.
  // The smoothing scratch is free again and holds n × t entries.
  const la::BlockView lx{scratch.a.data(), n, t};
  la::spmm(lap, x.view(), lx, threads);
  la::DenseMatrix t_mat = la::block_inner(x.view(), lx, threads);
  for (Index j = 0; j < t; ++j)
    for (Index i = 0; i < j; ++i) {
      const Real avg = 0.5 * (t_mat(i, j) + t_mat(j, i));
      t_mat(i, j) = avg;
      t_mat(j, i) = avg;
    }
  const eig::DenseEigResult ritz = eig::dense_symmetric_eig(t_mat);

  Embedding out;
  out.engine_used = EmbeddingEngine::kSolverFree;
  out.smoother_sweeps = total_sweeps;
  out.hierarchy_levels = hierarchy.num_levels();
  out.eig_converged = true;
  out.lanczos_steps = 0;
  out.eigenvalues.assign(ritz.eigenvalues.begin(),
                         ritz.eigenvalues.begin() + dims);

  // U = X · Y_dims, columns scaled by 1/√(θ + 1/σ²) as in the exact path.
  // The first dims columns of Y are a storage prefix (column-major).
  la::Storage y_store(
      ritz.eigenvectors.data().begin(),
      ritz.eigenvectors.data().begin() +
          static_cast<std::size_t>(t) * static_cast<std::size_t>(dims));
  const la::DenseMatrix y_dims =
      la::DenseMatrix::from_storage(t, dims, std::move(y_store));
  out.u = la::DenseMatrix(n, dims);
  auto u_view = la::view_of(out.u);
  la::block_product(x.view(), y_dims, u_view, threads);
  const Real inv_sigma2 = 1.0 / options.sigma2;
  parallel::parallel_for(0, dims, threads, [&](Index c) {
    const Real theta =
        std::max(out.eigenvalues[static_cast<std::size_t>(c)], Real{0});
    const Real scale = 1.0 / std::sqrt(theta + inv_sigma2);
    auto col = out.u.col(c);
    for (Index i = 0; i < n; ++i) col[i] *= scale;
  });
  return out;
}

}  // namespace sgl::spectral
