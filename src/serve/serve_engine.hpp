// Long-lived serving engine (DESIGN.md §10).
//
// A ServeEngine holds the warm, expensive state a request/response loop
// needs to answer spectral queries fast: the loaded graphs, an LRU of
// LaplacianPinvSolver factorizations keyed by graph fingerprint
// (graph::GraphKey), and a cached spectral embedding — so a `solve`
// after a `learn` costs two triangular sweeps, not a factorization.
// Beside the LRU it keeps the symbolic analysis of each cached pattern,
// so a miss on a weight variant of a cached graph runs only the numeric
// phase of its factorization.
//
// Batching. `solve` queries that arrive concurrently are coalesced by a
// leader/follower combiner: the first thread to enqueue becomes the
// batch leader, waits until either `batch_width` requests are pending or
// `flush_deadline_us` has elapsed, then executes ONE apply_block over
// the gathered right-hand sides and scatters per-request results.
// Followers sleep on a condition variable until their slot is filled.
// Resistance queries skip the combiner: on the Cholesky path each is a
// sparse forward solve over two elimination-tree paths, far cheaper than
// any wait (LaplacianPinvSolver::effective_resistances).
//
// Determinism. apply_block is documented bit-identical to per-column
// apply() for every thread count and block width, and each request's
// column depends only on its own right-hand side — so every response is
// bitwise equal to the response a serial, unbatched server would have
// produced, regardless of how requests interleave into batches. Batch
// COMPOSITION is timing-dependent; batch RESULTS are not. A resistance
// is computed serially from its own pair, so it is bitwise the same for
// every thread count, batch width and request form. That is the
// guarantee the stress tests and the protocol integration test assert.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "core/sgl.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph.hpp"
#include "la/multi_vector.hpp"
#include "solver/laplacian_solver.hpp"
#include "spectral/embedding.hpp"

namespace sgl::serve {

struct ServeOptions {
  /// Flush a pending batch as soon as this many solves are queued.
  /// 1 disables coalescing (every solve is its own apply_block) — the
  /// serial reference configuration.
  Index batch_width = 16;
  /// Microseconds a batch leader waits for the batch to fill before
  /// flushing whatever is queued. 0 flushes immediately (coalescing
  /// still happens when requests are already waiting in the queue).
  Index flush_deadline_us = 200;
  /// Factorization LRU capacity (entries, ≥ 1). Loaded graphs are kept
  /// for the engine's lifetime — edge lists are cheap; factorizations
  /// are the expensive state this bound protects. An evicted graph's
  /// next query transparently re-factorizes (a cache miss, not an
  /// error).
  Index cache_capacity = 4;
  /// Solver configuration used for every factorization.
  solver::LaplacianSolverOptions solver;
  /// Embedding configuration for embedding() requests.
  spectral::EmbeddingOptions embedding;
  /// Threads for block solves (0 = library default). Results are
  /// bit-identical for every value (solver contract).
  Index num_threads = 0;
};

/// Monotonic counters; snapshot via ServeEngine::stats(). `batches`
/// counts the combiner's apply_block calls (solve traffic only), so
/// `batches == 1` after a width-16 coalesced flush is the "one block
/// solve, not sixteen" receipt the benchmarks and tests check.
struct ServeStats {
  Index requests = 0;         ///< solve/resistance requests accepted.
  Index batches = 0;          ///< solve flushes executed.
  Index batched_columns = 0;  ///< total width across all flushes.
  Index max_batch_width = 0;
  Index width_flushes = 0;     ///< flushed because the batch filled.
  Index deadline_flushes = 0;  ///< flushed because the deadline passed.
  /// Batches re-run column-by-column after a NumericalError, isolating
  /// the failing request so its neighbors still get their answers.
  Index serial_fallbacks = 0;
  /// Includes callers that waited on another caller's in-flight fill of
  /// the same graph; cache_misses counts factorizations started.
  Index cache_hits = 0;
  Index cache_misses = 0;
  Index cache_evictions = 0;
  /// Cache misses that ran the numeric phase only, on the live symbolic
  /// analysis of a same-pattern graph (cache_misses − symbolic_reuses
  /// misses analysed a pattern).
  Index symbolic_reuses = 0;
  Index graph_loads = 0;
  Index learns = 0;
  Index embeddings = 0;  ///< embedding() calls served from scratch.
  Index errors = 0;      ///< requests that completed with an error.
};

/// Outcome of a learn request (the SglResult fields a client acts on;
/// the learned graph itself stays warm inside the engine).
struct LearnSummary {
  graph::GraphKey key;
  Index num_nodes = 0;
  Index num_edges = 0;
  Index iterations = 0;
  bool converged = false;
  bool exhausted = false;
  Real final_smax = 0.0;
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions options = {});

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Registers `g` and makes it the active graph. Throws SglError with
  /// kGraphNotConnected for disconnected graphs (the pseudo-inverse
  /// semantics need one component), kBadRequest for empty ones. Loading
  /// a graph whose key is already registered just re-activates it.
  /// Factorization is lazy — the first query pays it (a cache miss).
  graph::GraphKey load_graph(graph::Graph g);

  /// Runs SGL on a measurement matrix (columns = measurement vectors)
  /// and activates the learned graph. `y` (currents) enables the
  /// eq. 21–23 scaling step; pass nullptr for voltage-only learning.
  LearnSummary learn(const la::DenseMatrix& x, const la::DenseMatrix* y,
                     const core::SglConfig& config);

  /// Re-activates a previously loaded/learned graph by key. Throws
  /// kBadRequest if the key was never registered.
  void activate(const graph::GraphKey& key);

  /// x = L⁺ rhs. Batched with concurrent callers (one apply_block per
  /// flush); the result is bitwise the serial answer. `key` pins the
  /// query to a specific registered graph — the race-free form for
  /// concurrent multi-graph clients (activate() + query is two steps;
  /// another client's activate can land in between). No key = the
  /// active graph.
  [[nodiscard]] la::Vector solve(
      const la::Vector& rhs,
      const std::optional<graph::GraphKey>& key = std::nullopt);

  /// Effective resistance (e_s − e_t)ᵀ L⁺ (e_s − e_t), key-pinnable like
  /// solve(). Answered inline on the calling thread, never through the
  /// combiner; bitwise LaplacianPinvSolver::effective_resistance.
  [[nodiscard]] Real effective_resistance(
      Index s, Index t,
      const std::optional<graph::GraphKey>& key = std::nullopt);

  /// Many resistance queries in one call, each answered bitwise as
  /// effective_resistance() would (LaplacianPinvSolver::
  /// effective_resistances). The wire protocol's array form and the
  /// throughput benchmark use this.
  [[nodiscard]] std::vector<Real> effective_resistance_batch(
      const std::vector<std::pair<Index, Index>>& pairs,
      const std::optional<graph::GraphKey>& key = std::nullopt);

  /// Spectral embedding of the active graph (cached per graph key).
  [[nodiscard]] spectral::Embedding embedding();

  [[nodiscard]] bool has_active_graph() const;
  /// Key of the active graph; throws kNoActiveGraph when none is set.
  [[nodiscard]] graph::GraphKey active_key() const;
  /// Node count of the active graph; throws kNoActiveGraph.
  [[nodiscard]] Index active_num_nodes() const;

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] const ServeOptions& options() const noexcept {
    return options_;
  }

 private:
  /// One queued solve. Results are published by the batch leader under
  /// queue_mutex_ (done flips last), so a follower that observes
  /// done == true under the lock owns its result outright.
  struct Pending {
    const solver::LaplacianPinvSolver* solver = nullptr;
    la::Vector rhs;
    la::Vector solution;  ///< L⁺ rhs.
    bool done = false;
    std::exception_ptr error;
  };

  /// One factorization being built outside state_mutex_. Callers that
  /// miss on the same key meanwhile wait for it on fill_cv_ instead of
  /// building it again (single flight). Fields are written once, under
  /// state_mutex_, before `done` flips.
  struct Fill {
    std::shared_ptr<const solver::LaplacianPinvSolver> solver;
    std::exception_ptr error;
    bool done = false;
  };

  /// Graphs of one sparsity pattern: node count, edge count and the
  /// endpoint digest of graph::GraphKey.
  using PatternKey = std::tuple<Index, Index, std::uint64_t>;

  /// The symbolic analysis of one pattern, shared by the cached solvers
  /// of its graphs. Held weakly: it lives exactly as long as some solver
  /// uses it. `analysing` marks a fill that is building it, so other
  /// fills of the pattern wait for it instead of analysing it again.
  struct SharedSymbolic {
    std::weak_ptr<const solver::CholeskySymbolic> symbolic;
    bool analysing = false;
  };

  /// Key plus the shared factorization. shared_ptr, so a batch holding
  /// a solver keeps it alive across an eviction happening mid-flight.
  using CacheEntry =
      std::pair<graph::GraphKey,
                std::shared_ptr<const solver::LaplacianPinvSolver>>;

  /// Registers `g` under `key` and activates it (shared tail of
  /// load_graph/learn). Caller has validated connectivity.
  void adopt_graph(const graph::GraphKey& key, graph::Graph g)
      SGL_EXCLUDES(state_mutex_);

  /// Returns the factorization of `key` (or of the active graph when
  /// nullopt). A miss builds it with no lock held — queries on other
  /// graphs never wait behind it — then LRU-inserts/evicts under
  /// state_mutex_; a caller that finds the key in flight waits for that
  /// build and counts as a hit. A Cholesky miss whose pattern has a live
  /// analysis runs the numeric phase only on it.
  [[nodiscard]] std::shared_ptr<const solver::LaplacianPinvSolver>
  acquire_solver(const std::optional<graph::GraphKey>& key)
      SGL_EXCLUDES(state_mutex_);

  /// Enqueues `p`, participates in the combiner (leader or follower),
  /// and returns once p.done; rethrows p.error.
  void enqueue_and_wait(Pending& p) SGL_EXCLUDES(queue_mutex_);

  /// Runs one apply_block over `batch` (all entries share p.solver),
  /// scattering per-request results. On NumericalError with width > 1,
  /// falls back to per-request apply() so one poisoned right-hand side
  /// does not fail its batchmates.
  void execute_batch(const std::vector<Pending*>& batch, bool width_flush);

  /// Solves one request into its result slot (scalar path; also the
  /// serial-fallback worker). Sets error instead of throwing.
  static void solve_one(Pending& p);

  ServeOptions options_;

  mutable common::Mutex state_mutex_;
  /// Every graph ever loaded, keyed by fingerprint (std::map: ordered,
  /// deterministic iteration).
  std::map<graph::GraphKey, graph::Graph> graphs_ SGL_GUARDED_BY(state_mutex_);
  std::optional<graph::GraphKey> active_ SGL_GUARDED_BY(state_mutex_);
  /// Factorization LRU: front = most recent. Linear scan — capacities
  /// are single digits.
  std::list<CacheEntry> lru_ SGL_GUARDED_BY(state_mutex_);
  /// Factorizations being built, by key (at most one per key).
  std::map<graph::GraphKey, std::shared_ptr<Fill>> fills_
      SGL_GUARDED_BY(state_mutex_);
  /// Symbolic analyses by pattern, beside the LRU. Entries whose analysis
  /// has expired are dropped whenever a fill completes.
  std::map<PatternKey, SharedSymbolic> symbolics_ SGL_GUARDED_BY(state_mutex_);
  /// Signalled (under no lock) whenever a fill completes or a pattern's
  /// analysis is published.
  std::condition_variable_any fill_cv_;
  /// Embedding cache for the (single) most recently embedded graph.
  std::optional<std::pair<graph::GraphKey, spectral::Embedding>>
      embedding_cache_ SGL_GUARDED_BY(state_mutex_);

  mutable common::Mutex queue_mutex_;
  std::condition_variable_any queue_cv_;
  std::vector<Pending*> queue_ SGL_GUARDED_BY(queue_mutex_);
  /// True while some thread is collecting the current batch; its
  /// enqueuers become followers.
  bool leader_active_ SGL_GUARDED_BY(queue_mutex_) = false;

  mutable common::Mutex stats_mutex_;
  ServeStats stats_ SGL_GUARDED_BY(stats_mutex_);
};

}  // namespace sgl::serve
