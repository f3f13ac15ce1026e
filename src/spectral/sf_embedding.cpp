#include "spectral/sf_embedding.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "eig/dense_eig.hpp"
#include "graph/coarsening.hpp"
#include "la/multi_vector.hpp"

namespace sgl::spectral {
namespace {

/// rows × columns below which a level's Jacobi sweeps run on the calling
/// thread: on coarse levels pool dispatch costs more than the sweep (with
/// every level on the pool, the 4-thread loop ran slower than the
/// 1-thread one). Purely a scheduling threshold — the smoothed block is
/// bitwise the same either way; 32768 (a 4096-node level at the default
/// 8 test vectors) measured best on the 128² mesh's hierarchy.
constexpr std::int64_t kInlineSmoothWork = 32768;

/// `sweeps` weighted-Jacobi sweeps X ← X − ω D⁻¹ (L X) on one level.
/// `work` is a scratch block of the same shape. spmm and the column
/// update are both deterministic for every thread count; levels below
/// kInlineSmoothWork run inline.
void jacobi_smooth(const graph::Graph& g, la::MultiVector& x,
                   la::MultiVector& work, Index sweeps, Real omega,
                   Index num_threads) {
  const la::CsrMatrix lap = g.laplacian();
  const la::Vector deg = g.weighted_degrees();
  const Index n = x.rows();
  const Index threads =
      std::int64_t{n} * x.cols() < kInlineSmoothWork ? 1 : num_threads;
  for (Index sweep = 0; sweep < sweeps; ++sweep) {
    la::spmm(lap, x.view(), work.view(), threads);
    parallel::parallel_for(0, x.cols(), threads, [&](Index c) {
      auto xc = x.col(c);
      const auto wc = work.col(c);
      for (Index i = 0; i < n; ++i) {
        const Real d = deg[static_cast<std::size_t>(i)];
        if (d > 0.0) xc[i] -= omega * wc[i] / d;
      }
    });
  }
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

  la::MultiVector work(coarsest.num_nodes(), t);
  jacobi_smooth(coarsest, x, work, sf.smoother_sweeps, sf.jacobi_weight,
                threads);
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
    work = la::MultiVector(fine.num_nodes(), t);
    jacobi_smooth(fine, x, work, sf.smoother_sweeps, sf.jacobi_weight,
                  threads);
    center_and_orthonormalize(x, threads);
    total_sweeps += sf.smoother_sweeps;
  }

  // One Rayleigh–Ritz projection at the finest level: T = Xᵀ L X over the
  // orthonormal basis, a t × t dense eigenproblem. The Ritz values give
  // the eigenvalue scale the eq. 12 column weighting needs — this is what
  // lets the solver-free embedding rank edges interchangeably with the
  // exact engine.
  const la::CsrMatrix lap = g.laplacian();
  la::spmm(lap, x.view(), work.view(), threads);
  la::DenseMatrix t_mat = la::block_inner(x.view(), work.view(), threads);
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
