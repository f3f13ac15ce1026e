#include "spectral/metrics.hpp"

#include <cmath>
#include <optional>

#include "common/rng.hpp"

namespace sgl::spectral {

Real pearson_correlation(const la::Vector& a, const la::Vector& b) {
  SGL_EXPECTS(a.size() == b.size() && a.size() >= 2,
              "pearson_correlation: need two equal samples of size >= 2");
  const Real ma = la::mean(a);
  const Real mb = la::mean(b);
  Real cov = 0.0;
  Real va = 0.0;
  Real vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Real da = a[i] - ma;
    const Real db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  const Real denom = std::sqrt(va * vb);
  if (denom == 0.0) return (va == vb) ? 1.0 : 0.0;
  return cov / denom;
}

Real mean_relative_error(const la::Vector& reference, const la::Vector& approx) {
  SGL_EXPECTS(reference.size() == approx.size() && !reference.empty(),
              "mean_relative_error: size mismatch");
  Real acc = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    acc += std::abs(reference[i] - approx[i]) /
           std::max(std::abs(reference[i]), Real{1e-300});
  }
  return acc / static_cast<Real>(reference.size());
}

SpectrumComparison compare_spectra(const graph::Graph& reference,
                                   const graph::Graph& learned, Index k,
                                   const EmbeddingOptions& options,
                                   const ComparisonSolvers& solvers) {
  SGL_EXPECTS(reference.num_nodes() == learned.num_nodes() || k >= 1,
              "compare_spectra: k must be positive");
  const eig::LanczosOptions& lanczos = options.lanczos;
  const Index k_ref = std::min(k, reference.num_nodes() - 1);
  const Index k_learned = std::min(k, learned.num_nodes() - 1);
  const Index kk = std::min(k_ref, k_learned);

  // Each graph sizes its own auto cap: the graphs may differ in node
  // count (reduced-network comparisons), and a shared cap clamped by the
  // smaller graph would starve the larger one's eigensolver.
  eig::LanczosOptions opt_ref = lanczos;
  eig::LanczosOptions opt_learned = lanczos;
  if (lanczos.max_subspace == 0) {
    opt_ref.max_subspace = eig::spectrum_subspace_cap(
        reference.num_nodes(), kk, lanczos.block_size);
    opt_learned.max_subspace = eig::spectrum_subspace_cap(
        learned.num_nodes(), kk, lanczos.block_size);
  }

  // Caller-provided warm solvers are used as-is; missing sides build
  // their own (the historical per-call construction).
  std::optional<solver::LaplacianPinvSolver> local_ref;
  if (solvers.reference == nullptr) local_ref.emplace(reference, options.solver);
  std::optional<solver::LaplacianPinvSolver> local_learned;
  if (solvers.learned == nullptr) local_learned.emplace(learned, options.solver);
  const solver::LaplacianPinvSolver& pinv_ref =
      solvers.reference != nullptr ? *solvers.reference : *local_ref;
  const solver::LaplacianPinvSolver& pinv_learned =
      solvers.learned != nullptr ? *solvers.learned : *local_learned;
  SpectrumComparison out;
  out.reference =
      eig::smallest_laplacian_eigenpairs(pinv_ref, kk, opt_ref).eigenvalues;
  out.approx =
      eig::smallest_laplacian_eigenpairs(pinv_learned, kk, opt_learned)
          .eigenvalues;
  out.correlation = pearson_correlation(out.reference, out.approx);
  out.mean_rel_error = mean_relative_error(out.reference, out.approx);
  return out;
}

std::vector<std::pair<Index, Index>> sample_node_pairs(Index num_nodes,
                                                       Index count,
                                                       std::uint64_t seed) {
  SGL_EXPECTS(num_nodes >= 2, "sample_node_pairs: need at least two nodes");
  SGL_EXPECTS(count >= 1, "sample_node_pairs: count must be positive");
  Rng rng(seed);
  std::vector<std::pair<Index, Index>> pairs;
  pairs.reserve(static_cast<std::size_t>(count));
  while (to_index(pairs.size()) < count) {
    const Index s = rng.uniform_int(num_nodes);
    const Index t = rng.uniform_int(num_nodes);
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

std::vector<std::pair<Index, Index>> sample_node_pairs_by_hops(
    const graph::Graph& g, Index count, std::uint64_t seed, Index max_hops) {
  SGL_EXPECTS(g.num_nodes() >= 2, "sample_node_pairs_by_hops: graph too small");
  SGL_EXPECTS(count >= 1, "sample_node_pairs_by_hops: count must be positive");
  SGL_EXPECTS(max_hops >= 1, "sample_node_pairs_by_hops: max_hops must be positive");
  const graph::AdjacencyList adj = g.adjacency_list();
  Rng rng(seed);
  std::vector<std::pair<Index, Index>> pairs;
  pairs.reserve(static_cast<std::size_t>(count));
  Index hops = 1;
  while (to_index(pairs.size()) < count) {
    const Index s = rng.uniform_int(g.num_nodes());
    Index t = s;
    for (Index step = 0; step < hops; ++step) {
      const Index degree = adj.degree(t);
      if (degree == 0) break;
      const Index pick = adj.row_ptr[static_cast<std::size_t>(t)] +
                         rng.uniform_int(degree);
      t = adj.neighbor[static_cast<std::size_t>(pick)];
    }
    if (t != s) pairs.emplace_back(s, t);
    hops *= 2;
    if (hops > max_hops) hops = 1;
  }
  return pairs;
}

ResistanceComparison compare_effective_resistances(
    const graph::Graph& reference, const graph::Graph& learned,
    const std::vector<std::pair<Index, Index>>& pairs,
    const EmbeddingOptions& options, const ComparisonSolvers& solvers) {
  SGL_EXPECTS(reference.num_nodes() == learned.num_nodes(),
              "compare_effective_resistances: node count mismatch");
  std::optional<solver::LaplacianPinvSolver> local_ref;
  if (solvers.reference == nullptr) local_ref.emplace(reference, options.solver);
  std::optional<solver::LaplacianPinvSolver> local_learned;
  if (solvers.learned == nullptr) local_learned.emplace(learned, options.solver);
  const solver::LaplacianPinvSolver& pinv_ref =
      solvers.reference != nullptr ? *solvers.reference : *local_ref;
  const solver::LaplacianPinvSolver& pinv_learned =
      solvers.learned != nullptr ? *solvers.learned : *local_learned;

  ResistanceComparison out;
  out.reference = pinv_ref.effective_resistances(pairs);
  out.approx = pinv_learned.effective_resistances(pairs);
  out.correlation = pearson_correlation(out.reference, out.approx);
  return out;
}

}  // namespace sgl::spectral
