// Hierarchical Navigable Small World approximate nearest-neighbor index.
//
// From-scratch implementation of Malkov & Yashunin's HNSW (the paper's
// reference [8] for scalable kNN construction): an exponential hierarchy
// of proximity graphs searched greedily from the top layer, with
// beam-search insertion and the distance-diversified neighbor-selection
// heuristic. Deterministic given the seed.
//
// Construction is generation-batched (DESIGN.md §9): points are
// partitioned into generations by insertion order (a pure function of N
// alone); a generation's candidate searches and forward neighbor
// selections run on the pool against the frozen previous-generation
// graph (per-worker scratch), then backlinks are committed serially in
// index order. Each node's candidates at a layer are its frozen-graph
// search result plus the members of its own generation that precede it
// (at that layer or above), with their exact distances: the points a
// serial insert would already have linked. Without them, up to 256
// consecutive — on mesh data, spatially adjacent — points never see
// each other and true neighbors go missing. Because the generation
// schedule, the frozen-graph searches, the member candidates and the
// commit order never depend on the worker count, the constructed graph
// is bitwise-identical — edge for edge — for every thread count,
// including 1. Level draws are a pure function of the point index and
// the seed (precomputed in one pass).
#pragma once

#include <cstdint>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "knn/brute_force.hpp"
#include "la/dense_matrix.hpp"

namespace sgl::knn {

struct HnswOptions {
  /// Target out-degree per layer (layer 0 allows 2·max_connections).
  Index max_connections = 16;
  /// Beam width during construction: the smallest value whose kNN graph
  /// equals the exact scan's on every generator family's measurement
  /// data at M = 20/50/100 and on the benchmark inputs (DESIGN.md §9).
  /// Must be at least max_connections.
  Index ef_construction = 64;
  /// Beam width during queries (raised automatically to k when smaller).
  Index ef_search = 64;
  std::uint64_t seed = 42;
};

/// Construction-phase statistics (benchmarks, tests, --verbose).
struct HnswBuildStats {
  /// Insertion generations the build was partitioned into.
  Index num_generations = 0;
  /// Inserts whose candidate searches ran batched against the frozen
  /// previous-generation graph (the pool-parallel path).
  Index committed_speculative = 0;
  /// Inserts performed live against the current graph (the whole build
  /// below the batch threshold, plus size-1 generations, where a live
  /// insert and a frozen-graph one coincide).
  Index fallback_serial = 0;
};

class HnswIndex {
 public:
  /// Builds the index over the rows of `points`. `num_threads` workers
  /// run the generation-batched construction (0 = library default); the
  /// graph is bitwise-identical for every value, including 1.
  HnswIndex(const la::DenseMatrix& points, const HnswOptions& options = {},
            Index num_threads = 1);

  /// k approximate nearest neighbors of the already-indexed point `query`
  /// (self excluded), sorted by increasing distance.
  [[nodiscard]] std::vector<std::pair<Real, Index>> search_point(
      Index query, Index k) const;

  /// kNN lists for every indexed point (the kNN-graph building block).
  /// Queries run in parallel (`num_threads` 0 = library default, 1 =
  /// serial) with per-worker visit scratch; every query is independent of
  /// the others, so the result is identical for any thread count.
  [[nodiscard]] KnnResult knn_all(Index k, Index num_threads = 0) const;

  [[nodiscard]] Index num_points() const noexcept { return num_points_; }
  [[nodiscard]] Index max_level() const noexcept { return max_level_; }
  [[nodiscard]] Index entry_point() const noexcept { return entry_point_; }
  [[nodiscard]] const HnswBuildStats& build_stats() const noexcept {
    return build_stats_;
  }
  /// Hierarchy level of an indexed node (a pure function of the node
  /// index and the seed).
  [[nodiscard]] Index level_of(Index node) const {
    return node_level_[static_cast<std::size_t>(node)];
  }
  /// Adjacency list of `node` at `level` — the constructed graph's
  /// edges, exposed for edge-for-edge determinism tests and tooling.
  [[nodiscard]] const std::vector<Index>& links(Index node,
                                                Index level) const {
    return links_[static_cast<std::size_t>(node)][static_cast<std::size_t>(level)];
  }

 private:
  struct SearchCandidate {
    Real distance;
    Index node;
    bool operator<(const SearchCandidate& o) const {
      return distance < o.distance;
    }
    bool operator>(const SearchCandidate& o) const {
      return distance > o.distance;
    }
  };

  /// Epoch-marked visited set for one beam search. Each concurrent
  /// caller owns its own scratch — thread_local in the single-query
  /// entry point, one instance per worker slot in knn_all and in the
  /// parallel construction's speculation phase (there is no shared
  /// insert scratch on the object; insertion takes its scratch as a
  /// parameter, so it is reentrant) — which is what makes search_layer
  /// safe to run in parallel. There is deliberately no mutex here: the
  /// concurrency contract is exclusive ownership, exercised under TSan
  /// by the `stress`-labeled hammer tests (DESIGN.md §7).
  struct SearchScratch {
    std::vector<Index> visit_mark;  // last epoch each node was visited in
    Index visit_epoch = 0;
    // search_layer's working set, kept across searches so a search does
    // not allocate: the frontier min-heap, the best-ef max-heap, and the
    // result buffer search_layer returns a reference to.
    std::vector<SearchCandidate> frontier;
    std::vector<SearchCandidate> best;
    std::vector<SearchCandidate> result;
    /// Candidate list of a backlink shrink (commit/insert only).
    std::vector<SearchCandidate> shrink;
  };

  /// Fresh scratch sized for this index (all marks unvisited).
  [[nodiscard]] SearchScratch make_search_scratch() const {
    SearchScratch scratch;
    scratch.visit_mark.assign(static_cast<std::size_t>(num_points_), -1);
    return scratch;
  }

  [[nodiscard]] Real distance(Index a, Index b) const {
    return point_distance_squared(data_, dim_, a, b);
  }

  /// Neighbor slice of `node` at `level`.
  [[nodiscard]] const std::vector<Index>& neighbors(Index node,
                                                    Index level) const {
    return links_[static_cast<std::size_t>(node)][static_cast<std::size_t>(level)];
  }

  /// Greedy descent at one level: returns the local minimum from `start`.
  [[nodiscard]] Index greedy_closest(Index query, Index start,
                                     Index level) const;

  /// Beam search at one level; returns up to `ef` closest candidates in
  /// descending distance. The result lives in `scratch.result` (valid
  /// until the next search on the same scratch); mutates only `scratch`.
  [[nodiscard]] std::vector<SearchCandidate>& search_layer(
      Index query, Index start, Index ef, Index level,
      SearchScratch& scratch) const;

  /// search_point against caller-owned scratch (the concurrent variant).
  [[nodiscard]] std::vector<std::pair<Real, Index>> search_point(
      Index query, Index k, SearchScratch& scratch) const;

  /// Neighbor-selection heuristic (keep candidates closer to the query
  /// than to any already-kept neighbor): sorts `candidates` in place and
  /// writes up to `m` chosen nodes into `selected`.
  void select_neighbors(std::vector<SearchCandidate>& candidates, Index m,
                        std::vector<Index>& selected) const;

  /// Appends `node` to `nb`'s list at `level`, re-selecting the list down
  /// to `m_max` when it overflows (the backlink half of linking).
  void add_backlink(Index nb, Index node, Index level, Index m_max,
                    SearchScratch& scratch) SGL_REQUIRES(build_mutex_);

  /// One batched insert: the forward neighbor lists of the link phase,
  /// searched and selected against the frozen start-of-generation graph.
  struct Speculation {
    /// chosen[l] = select_neighbors over the layer-l search result
    /// (l = 0..min(level, the frozen max level)).
    std::vector<std::vector<Index>> chosen;
    bool has = false;  // batched search ran (graph was non-empty)
  };

  // --- Construction (DESIGN.md §9). --------------------------------------
  // All graph mutation happens under build_mutex_, which the constructor
  // holds for the whole build; the speculation phases read the frozen
  // graph from pool workers WITHOUT the mutex (the orchestrator is
  // blocked, so nothing mutates concurrently — the same lock-free-read
  // contract the post-construction query path relies on). links_,
  // entry_point_ and max_level_ are therefore deliberately NOT
  // GUARDED_BY: annotating them would poison every unlocked reader.

  /// Live-inserts `node` into the current graph (level already drawn in
  /// node_level_).
  void insert(Index node, SearchScratch& scratch) SGL_REQUIRES(build_mutex_);
  /// Runs `node`'s candidate searches against the frozen graph, adds the
  /// earlier members of its generation [g0, node) as exact candidates,
  /// and selects its forward neighbors into `spec` (the
  /// generation-batched parallel phase).
  void speculate(Index node, Index g0, Index snap_entry, Index snap_max,
                 SearchScratch& scratch, Speculation& spec) const;
  /// Links one batched insert in serial index order from its recorded
  /// forward lists (backlinks, shrink, entry update) — the same link
  /// phase as insert(), minus the searches and the forward selection.
  void commit(Index node, Index snap_max, const Speculation& spec,
              SearchScratch& scratch) SGL_REQUIRES(build_mutex_);
  /// One generation [g0, g1): pool-parallel frozen-graph searches and
  /// forward selections, then serial commits.
  void insert_batch(Index g0, Index g1, Index threads,
                    std::vector<SearchScratch>& worker_scratch,
                    std::vector<Speculation>& specs, SearchScratch& scratch)
      SGL_REQUIRES(build_mutex_);
  /// Whole-index build: live serial insertion below the batch threshold,
  /// otherwise the generation schedule — identical at every thread count
  /// (generation sizes grow with the committed prefix, so early inserts,
  /// whose searches are cheap, stay near-serial while the expensive tail
  /// batches widely).
  void build_all(Index num_threads) SGL_REQUIRES(build_mutex_);

  Index num_points_ = 0;
  Index dim_ = 0;
  std::vector<Real> data_;  // row-major points
  HnswOptions options_;
  Real level_multiplier_ = 0.0;
  Index entry_point_ = kInvalidIndex;
  Index max_level_ = -1;
  std::vector<Index> node_level_;
  // links_[node][level] = neighbor list.
  std::vector<std::vector<std::vector<Index>>> links_;
  Rng rng_;
  /// Serializes graph mutation during construction. After the
  /// constructor returns the index is immutable and every member is safe
  /// to read concurrently without it.
  common::Mutex build_mutex_;
  HnswBuildStats build_stats_;
};

/// Convenience wrapper mirroring brute_force_knn. Construction and the
/// batched queries both use `num_threads`; the result is identical for
/// any thread count.
[[nodiscard]] KnnResult hnsw_knn(const la::DenseMatrix& points, Index k,
                                 const HnswOptions& options = {},
                                 Index num_threads = 0);

}  // namespace sgl::knn
