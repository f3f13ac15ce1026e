#include "serve/serve_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "graph/components.hpp"

namespace sgl::serve {

ServeEngine::ServeEngine(ServeOptions options) : options_(options) {
  SGL_EXPECTS(options_.batch_width >= 1, "ServeEngine: batch_width < 1");
  SGL_EXPECTS(options_.flush_deadline_us >= 0,
              "ServeEngine: negative flush deadline");
  SGL_EXPECTS(options_.cache_capacity >= 1, "ServeEngine: cache_capacity < 1");
}

graph::GraphKey ServeEngine::load_graph(graph::Graph g) {
  if (g.num_nodes() <= 0) {
    const common::MutexLock lock(stats_mutex_);
    ++stats_.errors;
    throw SglError(ErrorCode::kBadRequest, "load_graph: graph has no nodes");
  }
  if (!graph::is_connected(g)) {
    const common::MutexLock lock(stats_mutex_);
    ++stats_.errors;
    throw SglError(ErrorCode::kGraphNotConnected,
                   "load_graph: graph is not connected (L⁺ semantics need "
                   "one component)");
  }
  const graph::GraphKey key = graph::graph_key(g);
  adopt_graph(key, std::move(g));
  {
    const common::MutexLock lock(stats_mutex_);
    ++stats_.graph_loads;
  }
  return key;
}

LearnSummary ServeEngine::learn(const la::DenseMatrix& x,
                                const la::DenseMatrix* y,
                                const core::SglConfig& config) {
  core::SglResult result;
  try {
    result = y != nullptr ? core::learn_graph(x, *y, config)
                          : core::learn_graph(x, config);
  } catch (...) {
    const common::MutexLock lock(stats_mutex_);
    ++stats_.errors;
    throw;
  }

  LearnSummary summary;
  summary.key = graph::graph_key(result.learned);
  summary.num_nodes = result.learned.num_nodes();
  summary.num_edges = result.learned.num_edges();
  summary.iterations = result.iterations;
  summary.converged = result.converged;
  summary.exhausted = result.exhausted;
  summary.final_smax = result.final_smax;

  adopt_graph(summary.key, std::move(result.learned));
  {
    const common::MutexLock lock(stats_mutex_);
    ++stats_.learns;
  }
  return summary;
}

void ServeEngine::activate(const graph::GraphKey& key) {
  const common::MutexLock lock(state_mutex_);
  if (graphs_.find(key) == graphs_.end()) {
    const common::MutexLock stats_lock(stats_mutex_);
    ++stats_.errors;
    throw SglError(ErrorCode::kBadRequest,
                   "activate: unknown graph key (load_graph or learn first)");
  }
  active_ = key;
}

void ServeEngine::adopt_graph(const graph::GraphKey& key, graph::Graph g) {
  const common::MutexLock lock(state_mutex_);
  // Equal keys mean equal graphs; keeping the registered one leaves it
  // untouched for any fill or embedding reading it unlocked.
  graphs_.try_emplace(key, std::move(g));
  active_ = key;
}

std::shared_ptr<const solver::LaplacianPinvSolver>
ServeEngine::acquire_solver(const std::optional<graph::GraphKey>& key_opt) {
  graph::GraphKey key;
  const graph::Graph* g = nullptr;
  std::shared_ptr<Fill> fill;
  PatternKey pattern;
  std::shared_ptr<const solver::CholeskySymbolic> symbolic;
  bool analyser = false;
  {
    const common::MutexLock lock(state_mutex_);
    if (key_opt.has_value()) {
      if (graphs_.find(*key_opt) == graphs_.end()) {
        const common::MutexLock stats_lock(stats_mutex_);
        ++stats_.errors;
        throw SglError(ErrorCode::kBadRequest,
                       "unknown graph key (load_graph or learn first)");
      }
      key = *key_opt;
    } else {
      if (!active_.has_value()) {
        const common::MutexLock stats_lock(stats_mutex_);
        ++stats_.errors;
        throw SglError(ErrorCode::kNoActiveGraph,
                       "no active graph: load_graph or learn first");
      }
      key = *active_;
    }

    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->first == key) {
        lru_.splice(lru_.begin(), lru_, it);  // move to MRU position
        const common::MutexLock stats_lock(stats_mutex_);
        ++stats_.cache_hits;
        return lru_.front().second;
      }
    }

    // Another caller is already building this key: wait for its result
    // instead of building it twice. The wait releases state_mutex_, so
    // queries on other graphs proceed meanwhile.
    const auto in_flight = fills_.find(key);
    if (in_flight != fills_.end()) {
      {
        const common::MutexLock stats_lock(stats_mutex_);
        ++stats_.cache_hits;
      }
      fill = in_flight->second;
      while (!fill->done) fill_cv_.wait(state_mutex_);
      if (fill->error != nullptr) std::rethrow_exception(fill->error);
      return fill->solver;
    }

    {
      const common::MutexLock stats_lock(stats_mutex_);
      ++stats_.cache_misses;
    }
    fill = std::make_shared<Fill>();
    fills_.emplace(key, fill);
    // std::map nodes are pointer-stable and graphs are never erased or
    // reassigned, so the factorization below can read g unlocked.
    g = &graphs_.at(key);

    // A Cholesky fill looks for the live analysis of its pattern. If a
    // fill of another graph of the pattern is analysing it right now,
    // wait for that one rather than analyse the pattern twice; if there
    // is none, this fill analyses it and publishes the result.
    pattern = PatternKey{key.num_nodes, key.num_edges, key.endpoints};
    const bool cholesky =
        solver::resolve_laplacian_method(options_.solver.method,
                                         key.num_nodes, key.num_edges) ==
        solver::LaplacianMethod::kCholesky;
    for (bool looking = cholesky; looking;) {
      const auto it = symbolics_.find(pattern);
      if (it == symbolics_.end()) {
        symbolics_[pattern].analysing = true;
        analyser = true;
      } else if (it->second.analysing) {
        fill_cv_.wait(state_mutex_);
        continue;
      } else {
        symbolic = it->second.symbolic.lock();
        if (symbolic == nullptr) {
          it->second.analysing = true;
          analyser = true;
        }
      }
      looking = false;
    }
  }

  // Miss: factorize outside the lock, then insert at MRU, evicting from
  // the LRU end. The evicted shared_ptr may stay alive while an
  // in-flight batch still holds it — eviction only drops the cache's
  // reference, never a solver under a live solve. The solver checks the
  // analysis against its own grounded pattern before it shares it.
  std::shared_ptr<const solver::LaplacianPinvSolver> solver_ptr;
  std::exception_ptr error;
  try {
    solver_ptr = std::make_shared<const solver::LaplacianPinvSolver>(
        *g, options_.solver, symbolic);
  } catch (...) {
    error = std::current_exception();
  }
  const bool reused =
      symbolic != nullptr && solver_ptr != nullptr &&
      solver_ptr->cholesky_symbolic() == symbolic;
  {
    const common::MutexLock lock(state_mutex_);
    fills_.erase(key);
    fill->solver = solver_ptr;
    fill->error = error;
    fill->done = true;
    if (analyser) {
      SharedSymbolic& slot = symbolics_.at(pattern);
      slot.analysing = false;
      if (solver_ptr != nullptr) slot.symbolic = solver_ptr->cholesky_symbolic();
    }
    if (error == nullptr) {
      while (static_cast<Index>(lru_.size()) >= options_.cache_capacity) {
        lru_.pop_back();
        const common::MutexLock stats_lock(stats_mutex_);
        ++stats_.cache_evictions;
      }
      lru_.emplace_front(key, solver_ptr);
    }
    // Drop the analyses no solver uses any more (an evicted solver still
    // in a batch keeps its entry until a later fill).
    std::erase_if(symbolics_, [](const auto& entry) {
      return !entry.second.analysing && entry.second.symbolic.expired();
    });
    if (reused) {
      const common::MutexLock stats_lock(stats_mutex_);
      ++stats_.symbolic_reuses;
    }
  }
  fill_cv_.notify_all();
  if (error != nullptr) std::rethrow_exception(error);
  return solver_ptr;
}

la::Vector ServeEngine::solve(const la::Vector& rhs,
                              const std::optional<graph::GraphKey>& key) {
  {
    const common::MutexLock lock(stats_mutex_);
    ++stats_.requests;
  }
  const auto solver_ptr = acquire_solver(key);
  if (static_cast<Index>(rhs.size()) != solver_ptr->num_nodes()) {
    const common::MutexLock lock(stats_mutex_);
    ++stats_.errors;
    throw SglError(ErrorCode::kBadRequest,
                   "solve: rhs has " + std::to_string(rhs.size()) +
                       " entries, active graph has " +
                       std::to_string(solver_ptr->num_nodes()) + " nodes");
  }

  Pending p;
  p.solver = solver_ptr.get();
  p.rhs = rhs;
  enqueue_and_wait(p);
  return std::move(p.solution);
}

Real ServeEngine::effective_resistance(
    Index s, Index t, const std::optional<graph::GraphKey>& key) {
  return effective_resistance_batch({{s, t}}, key).front();
}

std::vector<Real> ServeEngine::effective_resistance_batch(
    const std::vector<std::pair<Index, Index>>& pairs,
    const std::optional<graph::GraphKey>& key) {
  {
    const common::MutexLock lock(stats_mutex_);
    stats_.requests += static_cast<Index>(pairs.size());
  }
  const auto solver_ptr = acquire_solver(key);
  const Index n = solver_ptr->num_nodes();
  for (const auto& [s, t] : pairs) {
    if (s < 0 || s >= n || t < 0 || t >= n || s == t) {
      const common::MutexLock lock(stats_mutex_);
      ++stats_.errors;
      throw SglError(ErrorCode::kBadRequest,
                     "effective_resistance: invalid node pair (" +
                         std::to_string(s) + ", " + std::to_string(t) +
                         ") for " + std::to_string(n) + " nodes");
    }
  }
  // Inline, no combiner: each answer depends on its own pair only
  // (DESIGN.md §10), so there is nothing to gain from waiting.
  try {
    return solver_ptr->effective_resistances(pairs, options_.num_threads);
  } catch (...) {
    const common::MutexLock lock(stats_mutex_);
    ++stats_.errors;
    throw;
  }
}

spectral::Embedding ServeEngine::embedding() {
  graph::GraphKey key;
  const graph::Graph* g = nullptr;
  {
    const common::MutexLock lock(state_mutex_);
    if (!active_.has_value()) {
      const common::MutexLock stats_lock(stats_mutex_);
      ++stats_.errors;
      throw SglError(ErrorCode::kNoActiveGraph,
                     "embedding: no active graph");
    }
    key = *active_;
    if (embedding_cache_.has_value() && embedding_cache_->first == key) {
      return embedding_cache_->second;
    }
    // std::map nodes are pointer-stable and graphs are never erased, so
    // the computation below can run outside the lock.
    g = &graphs_.at(key);
  }

  spectral::Embedding emb;
  try {
    emb = spectral::compute_embedding(*g, options_.embedding);
  } catch (...) {
    const common::MutexLock lock(stats_mutex_);
    ++stats_.errors;
    throw;
  }
  {
    const common::MutexLock lock(state_mutex_);
    embedding_cache_ = std::make_pair(key, emb);
  }
  {
    const common::MutexLock lock(stats_mutex_);
    ++stats_.embeddings;
  }
  return emb;
}

bool ServeEngine::has_active_graph() const {
  const common::MutexLock lock(state_mutex_);
  return active_.has_value();
}

graph::GraphKey ServeEngine::active_key() const {
  const common::MutexLock lock(state_mutex_);
  if (!active_.has_value()) {
    throw SglError(ErrorCode::kNoActiveGraph, "active_key: no active graph");
  }
  return *active_;
}

Index ServeEngine::active_num_nodes() const {
  const common::MutexLock lock(state_mutex_);
  if (!active_.has_value()) {
    throw SglError(ErrorCode::kNoActiveGraph,
                   "active_num_nodes: no active graph");
  }
  return graphs_.at(*active_).num_nodes();
}

ServeStats ServeEngine::stats() const {
  const common::MutexLock lock(stats_mutex_);
  return stats_;
}

void ServeEngine::enqueue_and_wait(Pending& p) {
  // Leader/follower combiner. The first waiter becomes the leader,
  // collects until the batch fills or the deadline passes, then takes AT
  // MOST batch_width requests (a hard cap on block width) and executes
  // them with leadership released — so the next batch forms while this
  // one solves. Any request still queued after a partial take is woken
  // to lead its own batch; a request thread may therefore end up
  // executing a batch that no longer contains its own request (its slot
  // was taken by an earlier leader) — it serves its batchmates, loops,
  // and finds its result published.
  bool in_queue = false;
  for (;;) {
    std::vector<Pending*> batch;
    bool width_flush = false;
    {
      const common::MutexLock lock(queue_mutex_);
      if (!in_queue) {
        queue_.push_back(&p);
        in_queue = true;
      }
      if (p.done) break;
      // An empty queue means this request is in a batch already being
      // solved: there is nothing to lead, so wait for the result rather
      // than wait out a deadline for requests that may never come.
      if (leader_active_ || queue_.empty()) {
        // Follower: maybe wake the leader early, then sleep until this
        // request's result is published or leadership frees up.
        if (static_cast<Index>(queue_.size()) >= options_.batch_width) {
          queue_cv_.notify_all();
        }
        while (!p.done && (leader_active_ || queue_.empty())) {
          queue_cv_.wait(queue_mutex_);
        }
        if (p.done) break;
        continue;  // promoted: re-enter as a leader candidate
      }
      leader_active_ = true;
      if (options_.batch_width > 1 && options_.flush_deadline_us > 0 &&
          !p.done) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(options_.flush_deadline_us);
        while (static_cast<Index>(queue_.size()) < options_.batch_width) {
          if (queue_cv_.wait_until(queue_mutex_, deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
      }
      const auto take =
          std::min(queue_.size(), static_cast<std::size_t>(options_.batch_width));
      batch.assign(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(take));
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(take));
      width_flush = static_cast<Index>(take) >= options_.batch_width;
      leader_active_ = false;
      // Leftover requests need a new leader; their threads are asleep.
      if (!queue_.empty()) queue_cv_.notify_all();
    }

    if (!batch.empty()) {
      execute_batch(batch, width_flush);
      {
        const common::MutexLock lock(queue_mutex_);
        for (Pending* q : batch) q->done = true;
      }
      queue_cv_.notify_all();
    }
    {
      const common::MutexLock lock(queue_mutex_);
      if (p.done) break;
    }
  }

  if (p.error != nullptr) {
    {
      const common::MutexLock lock(stats_mutex_);
      ++stats_.errors;
    }
    std::rethrow_exception(p.error);
  }
}

void ServeEngine::execute_batch(const std::vector<Pending*>& batch,
                                bool width_flush) {
  {
    const common::MutexLock lock(stats_mutex_);
    if (width_flush) {
      ++stats_.width_flushes;
    } else {
      ++stats_.deadline_flushes;
    }
  }

  // Group by solver in first-arrival order: a flush normally holds one
  // group, but an activate() racing the queue can interleave requests
  // against different graphs.
  std::vector<std::pair<const solver::LaplacianPinvSolver*,
                        std::vector<Pending*>>>
      groups;
  for (Pending* p : batch) {
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == p->solver; });
    if (it == groups.end()) {
      groups.emplace_back(p->solver, std::vector<Pending*>{p});
    } else {
      it->second.push_back(p);
    }
  }

  for (auto& [sv, reqs] : groups) {
    const Index w = static_cast<Index>(reqs.size());
    {
      const common::MutexLock lock(stats_mutex_);
      ++stats_.batches;
      stats_.batched_columns += w;
      stats_.max_batch_width = std::max(stats_.max_batch_width, w);
    }
    if (w == 1) {
      solve_one(*reqs.front());
      continue;
    }

    const Index n = sv->num_nodes();
    la::MultiVector y(n, w);
    for (Index j = 0; j < w; ++j) {
      const la::Vector& rhs = reqs[static_cast<std::size_t>(j)]->rhs;
      std::copy(rhs.begin(), rhs.end(), y.col(j).begin());
    }
    la::MultiVector x(n, w);
    try {
      sv->apply_block(std::as_const(y).view(), x.view(), options_.num_threads);
    } catch (...) {
      // One poisoned column fails the whole block (PCG stall reports the
      // first stalled column). Re-run per request so each gets its own
      // answer or its own error — and, per the solver's bit-equality
      // contract, the per-column reruns reproduce exactly what the block
      // would have produced for the healthy columns.
      {
        const common::MutexLock lock(stats_mutex_);
        ++stats_.serial_fallbacks;
      }
      for (Pending* p : reqs) solve_one(*p);
      continue;
    }
    for (Index j = 0; j < w; ++j) {
      const auto col = x.col(j);
      reqs[static_cast<std::size_t>(j)]->solution.assign(col.begin(),
                                                         col.end());
    }
  }
}

void ServeEngine::solve_one(Pending& p) {
  try {
    p.solution = p.solver->apply(p.rhs);
  } catch (...) {
    p.error = std::current_exception();
  }
}

}  // namespace sgl::serve
