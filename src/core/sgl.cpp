#include "core/sgl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/scaling.hpp"
#include "graph/mst.hpp"
#include "spectral/embedding.hpp"

namespace sgl::core {

SglLearner::SglLearner(const la::DenseMatrix& x, SglConfig config)
    : config_(std::move(config)), x_(x) {
  SGL_EXPECTS(x.rows() >= 3, "SglLearner: need at least three nodes");
  SGL_EXPECTS(x.cols() >= 1, "SglLearner: need at least one measurement");
  SGL_EXPECTS(config_.k >= 1 && config_.k < x.rows(),
              "SglLearner: need 1 <= k < N");

  SGL_EXPECTS(config_.embedding.r >= 2, "SglLearner: r must be at least 2");
  SGL_EXPECTS(config_.embedding.sigma2 > 0.0,
              "SglLearner: sigma2 must be positive");
  SGL_EXPECTS(config_.beta > 0.0 && config_.beta <= 1.0,
              "SglLearner: beta must lie in (0, 1]");
  SGL_EXPECTS(config_.tolerance >= 0.0,
              "SglLearner: tolerance must be nonnegative");

  // Every embedding backend inherits the learner's thread knob unless its
  // options pin their own (results are identical either way).
  if (config_.embedding.solver.num_threads == 0)
    config_.embedding.solver.num_threads = config_.num_threads;
  if (config_.embedding.lanczos.num_threads == 0)
    config_.embedding.lanczos.num_threads = config_.num_threads;
  if (config_.embedding.sf.num_threads == 0)
    config_.embedding.sf.num_threads = config_.num_threads;

  // The loop-wide solver context (DESIGN.md §8): every solver consumer of
  // this learner goes through it. Created after the thread-knob merge so
  // it inherits the effective solver options. In kOff it rebuilds on
  // every acquire — the historical per-consumer behavior, bitwise.
  solver::SolverContextOptions context_options;
  context_options.mode = config_.incremental;
  context_options.solver = config_.embedding.solver;
  context_ = std::make_unique<solver::SolverContext>(context_options);

  // Step 1: candidate kNN graph and its maximum spanning tree.
  WallTimer knn_timer;
  knn::KnnGraphOptions knn_options = config_.knn;
  knn_options.k = config_.k;
  knn_options.ensure_connected = true;  // MST initialization needs it
  if (knn_options.num_threads == 0) knn_options.num_threads = config_.num_threads;
  knn_ = knn::build_knn_graph(x_, knn_options);
  knn_seconds_ = knn_timer.seconds();

  const WallTimer init_timer;
  tree_edge_ids_ = graph::maximum_spanning_forest(knn_);
  learned_ = graph::subgraph_from_edges(knn_, tree_edge_ids_);

  // Off-tree edges become the candidate pool; z_data is recovered from the
  // kNN weight (w = M / z_data, eq. 15) so clamping stays consistent.
  std::vector<bool> in_tree(static_cast<std::size_t>(knn_.num_edges()), false);
  for (const Index id : tree_edge_ids_) in_tree[static_cast<std::size_t>(id)] = true;
  const Real m = static_cast<Real>(x_.cols());
  candidates_.reserve(static_cast<std::size_t>(knn_.num_edges()) -
                      tree_edge_ids_.size());
  for (Index id = 0; id < knn_.num_edges(); ++id) {
    if (in_tree[static_cast<std::size_t>(id)]) continue;
    const graph::Edge& e = knn_.edge(id);
    candidates_.push_back({e.s, e.t, m / e.weight});
  }
  learn_seconds_ += init_timer.seconds();
}

SglIterationStats SglLearner::step() {
  SglIterationStats stats;
  if (converged_ || candidates_.empty()) {
    // An empty candidate pool is exhaustion, not convergence: the last
    // observed smax may still exceed the tolerance, so the distortion
    // certificate does not hold. Both states make step() a no-op.
    stats.iteration = iteration_;
    stats.total_edges = learned_.num_edges();
    return stats;
  }

  const WallTimer timer;
  ++iteration_;

  // Step 2: spectral embedding of the current learned graph through the
  // engine seam — exact, solver-free, or auto per config_.embedding.engine
  // (thread knobs were merged in the constructor).
  const spectral::Embedding embedding =
      spectral::compute_embedding(learned_, config_.embedding, context_.get());
  stats.eig_converged = embedding.eig_converged;
  stats.engine = embedding.engine_used;
  stats.smoother_sweeps = embedding.smoother_sweeps;
  stats.hierarchy_levels = embedding.hierarchy_levels;

  // Step 3: candidate sensitivities s_st = z_emb − z_data / M (eq. 13).
  // Each candidate's sensitivity is independent, so the scan fills the
  // array in parallel; the running maximum is a chunk-ordered reduction,
  // bit-identical to the serial scan for every thread count.
  const Real m = static_cast<Real>(x_.cols());
  const std::size_t num_candidates = candidates_.size();
  std::vector<Real> sensitivity(num_candidates);
  const Real smax = parallel::parallel_reduce(
      0, to_index(num_candidates), config_.num_threads,
      -std::numeric_limits<Real>::infinity(),
      [&](Index lo, Index hi) {
        Real local = -std::numeric_limits<Real>::infinity();
        for (Index c = lo; c < hi; ++c) {
          const Candidate& cand = candidates_[static_cast<std::size_t>(c)];
          const Real z_emb = embedding.u.row_distance_squared(cand.s, cand.t);
          sensitivity[static_cast<std::size_t>(c)] = z_emb - cand.z_data / m;
          local = std::max(local, sensitivity[static_cast<std::size_t>(c)]);
        }
        return local;
      },
      [](Real a, Real b) { return std::max(a, b); });
  last_smax_ = smax;
  stats.iteration = iteration_;
  stats.smax = smax;

  // Step 4: convergence check.
  if (smax < config_.tolerance) {
    converged_ = true;
    stats.total_edges = learned_.num_edges();
    stats.seconds = timer.seconds();
    learn_seconds_ += stats.seconds;
    history_.push_back(stats);
    if (config_.observer) config_.observer(iteration_, smax, 0);
    return stats;
  }

  // Include the top ⌈Nβ⌉ candidates whose sensitivity exceeds tolerance.
  // Ranking uses sensitivities quantized to kTieResolution relative to
  // smax, with candidate order as the canonical tie-break: symmetric
  // graphs produce exactly tied candidates whose float images differ only
  // by eigensolver rounding, and without quantization the selection (and
  // thus the learned graph) would depend on sub-tolerance noise of
  // whichever eigensolver backend computed the embedding.
  const Index budget = static_cast<Index>(std::ceil(
      static_cast<Real>(learned_.num_nodes()) * config_.beta));
  std::vector<Index> order(num_candidates);
  std::iota(order.begin(), order.end(), Index{0});
  const Index take = std::min<Index>(budget, to_index(num_candidates));
  constexpr Real kTieResolution = 1e-6;
  const Real quantum = std::abs(smax) * kTieResolution;
  const auto rank = [&sensitivity, quantum](Index c) {
    const Real s = sensitivity[static_cast<std::size_t>(c)];
    return quantum > 0.0 ? std::floor(s / quantum) : s;
  };
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&rank](Index a, Index b) {
                      const Real ra = rank(a);
                      const Real rb = rank(b);
                      if (ra != rb) return ra > rb;
                      return a < b;
                    });

  std::vector<bool> remove(num_candidates, false);
  Index added = 0;
  for (Index i = 0; i < take; ++i) {
    const Index idx = order[static_cast<std::size_t>(i)];
    if (sensitivity[static_cast<std::size_t>(idx)] <= config_.tolerance) break;
    const Candidate& cand = candidates_[static_cast<std::size_t>(idx)];
    learned_.add_edge(cand.s, cand.t, m / cand.z_data);
    remove[static_cast<std::size_t>(idx)] = true;
    ++added;
  }
  if (added > 0) {
    std::vector<Candidate> kept;
    kept.reserve(num_candidates - static_cast<std::size_t>(added));
    for (std::size_t c = 0; c < num_candidates; ++c)
      if (!remove[c]) kept.push_back(candidates_[c]);
    candidates_.swap(kept);
  } else {
    // added == 0 with smax ≥ tol is the boundary case: step 4 did not
    // fire, yet the top-ranked candidate is not strictly above the
    // tolerance (smax == tol exactly, or within one quantization bucket
    // of it — a ≤ kTieResolution·smax margin). Treat the certificate as
    // satisfied so the loop terminates; off-by-a-rounding-unit is the
    // strongest guarantee available here.
    converged_ = true;
  }

  stats.edges_added = added;
  stats.total_edges = learned_.num_edges();
  stats.seconds = timer.seconds();
  learn_seconds_ += stats.seconds;
  history_.push_back(stats);
  if (config_.observer) config_.observer(iteration_, smax, added);
  return stats;
}

SglResult SglLearner::finalize(const la::DenseMatrix* y) const {
  SglResult result;
  result.learned = learned_;
  result.knn_graph = knn_;
  result.tree_edge_ids = tree_edge_ids_;
  result.history = history_;
  result.iterations = iteration_;
  result.converged = converged_;
  result.exhausted = !converged_ && candidates_.empty();
  result.final_smax = last_smax_;
  result.knn_seconds = knn_seconds_;
  result.learn_seconds = learn_seconds_;

  if (y != nullptr && config_.edge_scaling) {
    const WallTimer timer;
    // Routed through the learner's context: in kAuto the scaling solves
    // reuse the warm factorization of the last iteration's embedding, or
    // rebuild it on the cached ordering if edges were added since; in
    // kOff the context builds fresh, exactly as this call always did.
    result.scale_factor = apply_spectral_edge_scaling(
        result.learned, x_, *y, *context_, config_.num_threads);
    result.learn_seconds += timer.seconds();
  }
  return result;
}

SglResult SglLearner::run(const la::DenseMatrix* y) {
  while (!converged_ && !candidates_.empty() &&
         iteration_ < config_.max_iterations) {
    step();
  }
  return finalize(y);
}

SglResult learn_graph(const la::DenseMatrix& x, const la::DenseMatrix& y,
                      const SglConfig& config) {
  SGL_EXPECTS(x.rows() == y.rows() && x.cols() == y.cols(),
              "learn_graph: X and Y must have identical shape");
  SglLearner learner(x, config);
  return learner.run(&y);
}

SglResult learn_graph(const la::DenseMatrix& x, const SglConfig& config) {
  SglLearner learner(x, config);
  return learner.run(nullptr);
}

}  // namespace sgl::core
