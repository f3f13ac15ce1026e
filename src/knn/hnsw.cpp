#include "knn/hnsw.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace sgl::knn {

namespace {

/// Point count below which construction is plain live insertion:
/// generation scheduling costs more than the searches it batches. The
/// threshold depends only on N, so the graph is still a pure function of
/// the inputs at every thread count.
constexpr Index kSerialBuildPoints = 512;

/// Generation size for a committed prefix of `committed` nodes: grows
/// with the prefix (early searches are cheap and their graph snapshot
/// would go stale over a wide batch; late ones are expensive and a
/// recent-generation snapshot is already a good search surface), capped
/// so a generation never searches a snapshot more than 256 commits old.
[[nodiscard]] Index generation_size(Index committed) {
  if (committed == 0) return 1;  // the entry point must exist first
  return std::max<Index>(8, std::min<Index>(256, committed / 4));
}

}  // namespace

HnswIndex::HnswIndex(const la::DenseMatrix& points, const HnswOptions& options,
                     Index num_threads)
    : num_points_(points.rows()),
      dim_(points.cols()),
      data_(to_row_major(points)),
      options_(options),
      rng_(options.seed) {
  SGL_EXPECTS(num_points_ >= 1, "HnswIndex: need at least one point");
  SGL_EXPECTS(options.max_connections >= 2,
              "HnswIndex: max_connections must be at least 2");
  SGL_EXPECTS(options.ef_construction >= options.max_connections,
              "HnswIndex: ef_construction below max_connections");
  level_multiplier_ = 1.0 / std::log(static_cast<Real>(options.max_connections));
  // Level draws up front, in serial insertion order — one rng_ call per
  // node, the exact call sequence of per-insert draws — so each node's
  // level is a pure function of its index and the seed, independent of
  // construction scheduling.
  node_level_.resize(static_cast<std::size_t>(num_points_));
  for (Index i = 0; i < num_points_; ++i) {
    node_level_[static_cast<std::size_t>(i)] = static_cast<Index>(
        -std::log(std::max(rng_.uniform(), 1e-18)) * level_multiplier_);
  }
  links_.resize(static_cast<std::size_t>(num_points_));
  common::MutexLock lock(build_mutex_);
  build_all(num_threads);
}

Index HnswIndex::greedy_closest(Index query, Index start, Index level) const {
  Index current = start;
  Real current_dist = distance(query, current);
  bool improved = true;
  while (improved) {
    improved = false;
    for (const Index nb : neighbors(current, level)) {
      const Real d = distance(query, nb);
      if (d < current_dist) {
        current = nb;
        current_dist = d;
        improved = true;
      }
    }
  }
  return current;
}

std::vector<HnswIndex::SearchCandidate>& HnswIndex::search_layer(
    Index query, Index start, Index ef, Index level,
    SearchScratch& scratch) const {
  ++scratch.visit_epoch;
  // Min-heap of frontier candidates; max-heap of current best ef results.
  // The heap operations are exactly std::priority_queue's (push_heap /
  // pop_heap over a vector with the same comparators), so the traversal
  // and the result order match a queue-based search bit for bit.
  std::vector<SearchCandidate>& frontier = scratch.frontier;
  std::vector<SearchCandidate>& best = scratch.best;
  frontier.clear();
  best.clear();
  const auto frontier_push = [&](SearchCandidate c) {
    frontier.push_back(c);
    std::push_heap(frontier.begin(), frontier.end(), std::greater<>{});
  };
  const auto best_push = [&](SearchCandidate c) {
    best.push_back(c);
    std::push_heap(best.begin(), best.end(), std::less<>{});
  };
  const auto best_pop = [&] {
    std::pop_heap(best.begin(), best.end(), std::less<>{});
    best.pop_back();
  };

  const Real d0 = distance(query, start);
  frontier_push({d0, start});
  best_push({d0, start});
  scratch.visit_mark[static_cast<std::size_t>(start)] = scratch.visit_epoch;

  while (!frontier.empty()) {
    const SearchCandidate candidate = frontier.front();
    if (candidate.distance > best.front().distance &&
        to_index(best.size()) >= ef)
      break;
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<>{});
    frontier.pop_back();
    for (const Index nb : neighbors(candidate.node, level)) {
      if (scratch.visit_mark[static_cast<std::size_t>(nb)] ==
          scratch.visit_epoch)
        continue;
      scratch.visit_mark[static_cast<std::size_t>(nb)] = scratch.visit_epoch;
      const Real d = distance(query, nb);
      if (to_index(best.size()) < ef || d < best.front().distance) {
        frontier_push({d, nb});
        best_push({d, nb});
        if (to_index(best.size()) > ef) best_pop();
      }
    }
  }

  std::vector<SearchCandidate>& out = scratch.result;
  out.clear();
  while (!best.empty()) {
    out.push_back(best.front());
    best_pop();
  }
  return out;  // descending distance; callers sort as needed
}

void HnswIndex::select_neighbors(std::vector<SearchCandidate>& candidates,
                                 Index m, std::vector<Index>& selected) const {
  std::sort(candidates.begin(), candidates.end());
  selected.clear();
  // Diversity heuristic: keep a candidate only if it is closer to the
  // query than to every neighbor kept so far.
  for (const SearchCandidate& c : candidates) {
    if (to_index(selected.size()) >= m) break;
    bool keep = true;
    for (const Index s : selected) {
      if (distance(c.node, s) < c.distance) {
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(c.node);
  }
  // Backfill with closest rejected candidates if diversity left slots empty.
  if (to_index(selected.size()) < m) {
    for (const SearchCandidate& c : candidates) {
      if (to_index(selected.size()) >= m) break;
      if (std::find(selected.begin(), selected.end(), c.node) ==
          selected.end())
        selected.push_back(c.node);
    }
  }
}

void HnswIndex::add_backlink(Index nb, Index node, Index level, Index m_max,
                             SearchScratch& scratch) {
  auto& back =
      links_[static_cast<std::size_t>(nb)][static_cast<std::size_t>(level)];
  back.push_back(node);
  if (to_index(back.size()) <= m_max) return;
  // Re-select to shrink the over-full list.
  std::vector<SearchCandidate>& all = scratch.shrink;
  all.clear();
  for (const Index x : back) all.push_back({distance(nb, x), x});
  select_neighbors(all, m_max, back);
}

void HnswIndex::insert(Index node, SearchScratch& scratch) {
  const Index level = node_level_[static_cast<std::size_t>(node)];
  links_[static_cast<std::size_t>(node)].assign(
      static_cast<std::size_t>(level) + 1, {});

  if (entry_point_ == kInvalidIndex) {
    entry_point_ = node;
    max_level_ = level;
    return;
  }

  Index current = entry_point_;
  // Phase 1: greedy descent through layers above the node's level.
  for (Index l = max_level_; l > level; --l)
    current = greedy_closest(node, current, l);

  // Phase 2: beam search + linking from min(level, max_level_) down to 0.
  for (Index l = std::min(level, max_level_); l >= 0; --l) {
    // The candidates live in scratch.result until the next search; the
    // backlink shrinks below use their own buffer.
    std::vector<SearchCandidate>& candidates =
        search_layer(node, current, options_.ef_construction, l, scratch);
    // Closest candidate (first in search order) seeds the next (lower)
    // layer's search; take it before selection sorts the candidates.
    if (!candidates.empty())
      current = std::min_element(candidates.begin(), candidates.end())->node;
    const Index m_max =
        (l == 0) ? 2 * options_.max_connections : options_.max_connections;
    std::vector<Index>& chosen =
        links_[static_cast<std::size_t>(node)][static_cast<std::size_t>(l)];
    select_neighbors(candidates, options_.max_connections, chosen);
    for (const Index nb : chosen) add_backlink(nb, node, l, m_max, scratch);
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = node;
  }
}

void HnswIndex::speculate(Index node, Index g0, Index snap_entry,
                          Index snap_max, SearchScratch& scratch,
                          Speculation& spec) const {
  // The search and forward-selection phases of insert(), run against the
  // frozen start-of-generation graph: generation members are absent from
  // every frozen adjacency list, so the traversal only sees committed
  // nodes and is independent of the worker count and of how the
  // generation is sliced across workers. The members a serial insert
  // would already have linked — [g0, node) — join each layer's candidates
  // directly with their exact distances, so a node can pick its own
  // generation's points (consecutive points are often spatial neighbors,
  // which a frozen-only search never sees). Forward selection reads only
  // the candidates and point coordinates, so it belongs here too.
  const Index level = node_level_[static_cast<std::size_t>(node)];
  Index current = snap_entry;
  for (Index l = snap_max; l > level; --l)
    current = greedy_closest(node, current, l);

  const Index lmin = std::min(level, snap_max);
  spec.chosen.resize(static_cast<std::size_t>(lmin) + 1);
  for (Index l = lmin; l >= 0; --l) {
    std::vector<SearchCandidate>& candidates =
        search_layer(node, current, options_.ef_construction, l, scratch);
    // The next layer's search starts from a frozen node, so take the
    // seed before the members join.
    if (!candidates.empty())
      current = std::min_element(candidates.begin(), candidates.end())->node;
    for (Index member = g0; member < node; ++member) {
      if (node_level_[static_cast<std::size_t>(member)] >= l)
        candidates.push_back({distance(node, member), member});
    }
    select_neighbors(candidates, options_.max_connections,
                     spec.chosen[static_cast<std::size_t>(l)]);
  }
  spec.has = true;
}

void HnswIndex::commit(Index node, Index snap_max, const Speculation& spec,
                       SearchScratch& scratch) {
  // Size-1 generations (and an empty graph) skip the batched search: a
  // frozen-graph search with no earlier commits in the generation IS the
  // live search, so the cheaper live insert produces the same links.
  if (!spec.has) {
    insert(node, scratch);
    ++build_stats_.fallback_serial;
    return;
  }

  // The link phase of insert() driven by the recorded forward lists.
  // Backlink shrinking depends only on the live lists commits maintain
  // serially — a pure function of the commit order, which is the index
  // order.
  const Index level = node_level_[static_cast<std::size_t>(node)];
  links_[static_cast<std::size_t>(node)].assign(
      static_cast<std::size_t>(level) + 1, {});
  for (Index l = std::min(level, snap_max); l >= 0; --l) {
    const Index m_max =
        (l == 0) ? 2 * options_.max_connections : options_.max_connections;
    const std::vector<Index>& chosen = spec.chosen[static_cast<std::size_t>(l)];
    links_[static_cast<std::size_t>(node)][static_cast<std::size_t>(l)] =
        chosen;
    for (const Index nb : chosen) add_backlink(nb, node, l, m_max, scratch);
  }
  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = node;
  }
  ++build_stats_.committed_speculative;
}

void HnswIndex::insert_batch(Index g0, Index g1, Index threads,
                             std::vector<SearchScratch>& worker_scratch,
                             std::vector<Speculation>& specs,
                             SearchScratch& scratch) {
  ++build_stats_.num_generations;
  const Index snap_entry = entry_point_;
  const Index snap_max = max_level_;

  specs.assign(static_cast<std::size_t>(g1 - g0), Speculation{});
  if (snap_entry != kInvalidIndex && g1 - g0 > 1) {
    // Pool-parallel searches against the frozen graph. The orchestrator
    // holds build_mutex_ and is blocked here, so workers read a
    // quiescent structure (the post-construction query contract). With
    // one thread this runs inline — same searches, same results.
    parallel::parallel_for_slots(
        g0, g1, threads, [&](Index lo, Index hi, Index slot) {
          SearchScratch& ws = worker_scratch[static_cast<std::size_t>(slot)];
          if (ws.visit_mark.empty()) ws = make_search_scratch();
          for (Index node = lo; node < hi; ++node)
            speculate(node, g0, snap_entry, snap_max, ws,
                      specs[static_cast<std::size_t>(node - g0)]);
        });
  }

  // Serial commits in index order.
  for (Index node = g0; node < g1; ++node)
    commit(node, snap_max, specs[static_cast<std::size_t>(node - g0)],
           scratch);
}

void HnswIndex::build_all(Index num_threads) {
  SearchScratch scratch = make_search_scratch();
  if (num_points_ < kSerialBuildPoints) {
    // Small builds: plain live insertion. The threshold depends only on
    // N, so every thread count takes the same path.
    for (Index i = 0; i < num_points_; ++i) insert(i, scratch);
    build_stats_.fallback_serial += num_points_;
    return;
  }

  // The generation schedule is fixed by N alone; `threads` only decides
  // how each generation's searches are executed, never what they see.
  const Index threads = parallel::resolve_num_threads(num_threads);
  std::vector<SearchScratch> worker_scratch(static_cast<std::size_t>(threads));
  std::vector<Speculation> specs;
  Index g0 = 0;
  while (g0 < num_points_) {
    const Index g1 = std::min(num_points_, g0 + generation_size(g0));
    insert_batch(g0, g1, threads, worker_scratch, specs, scratch);
    g0 = g1;
  }
}

std::vector<std::pair<Real, Index>> HnswIndex::search_point(
    Index query, Index k, SearchScratch& scratch) const {
  SGL_EXPECTS(query >= 0 && query < num_points_,
              "HnswIndex::search_point: query out of range");
  SGL_EXPECTS(k >= 1, "HnswIndex::search_point: k must be positive");

  Index current = entry_point_;
  for (Index l = max_level_; l > 0; --l)
    current = greedy_closest(query, current, l);

  const Index ef = std::max(options_.ef_search, k + 1);
  std::vector<SearchCandidate>& found =
      search_layer(query, current, ef, 0, scratch);
  std::sort(found.begin(), found.end());

  std::vector<std::pair<Real, Index>> out;
  out.reserve(static_cast<std::size_t>(k));
  for (const SearchCandidate& c : found) {
    if (c.node == query) continue;  // exclude self
    out.emplace_back(c.distance, c.node);
    if (to_index(out.size()) == k) break;
  }
  return out;
}

std::vector<std::pair<Real, Index>> HnswIndex::search_point(Index query,
                                                            Index k) const {
  // Reused thread-local scratch keeps repeated single queries O(1) in
  // setup (the epoch trick) instead of re-initializing an N-sized buffer
  // per call. Grow-only: marks are always ≤ the persistent epoch counter,
  // so carrying the buffer across same-thread indices stays correct.
  thread_local SearchScratch scratch;
  if (to_index(scratch.visit_mark.size()) < num_points_)
    scratch.visit_mark.resize(static_cast<std::size_t>(num_points_), -1);
  if (scratch.visit_epoch == std::numeric_limits<Index>::max()) {
    std::fill(scratch.visit_mark.begin(), scratch.visit_mark.end(), Index{-1});
    scratch.visit_epoch = 0;
  }
  return search_point(query, k, scratch);
}

KnnResult HnswIndex::knn_all(Index k, Index num_threads) const {
  SGL_EXPECTS(k >= 1 && k < num_points_, "HnswIndex::knn_all: need 1 <= k < N");
  KnnResult result;
  result.k = k;
  result.neighbor.assign(static_cast<std::size_t>(num_points_) * k,
                         kInvalidIndex);
  result.distance_squared.assign(static_cast<std::size_t>(num_points_) * k,
                                 0.0);
  // Queries are read-only on the index and each one writes its own k
  // result slots; each worker slot owns its visit scratch, so concurrent
  // queries return exactly what serial ones would.
  const Index threads = parallel::resolve_num_threads(num_threads);
  std::vector<SearchScratch> scratch(static_cast<std::size_t>(threads));
  parallel::parallel_for_slots(
      0, num_points_, threads, [&](Index lo, Index hi, Index slot) {
        SearchScratch& s = scratch[static_cast<std::size_t>(slot)];
        if (s.visit_mark.empty()) s = make_search_scratch();
        for (Index i = lo; i < hi; ++i) {
          const auto found = search_point(i, k, s);
          // A search can come back empty only on a pathological graph
          // (e.g. an unreachable entry point); check before the fill loop —
          // found.size() - 1 would wrap to SIZE_MAX on an empty result.
          SGL_ENSURES(!found.empty(),
                      "HnswIndex::knn_all: empty search result");
          // HNSW may return fewer than k hits; duplicate the last hit
          // rather than leaving holes (callers dedup via Graph edges).
          for (Index j = 0; j < k; ++j) {
            const std::size_t src =
                std::min<std::size_t>(static_cast<std::size_t>(j),
                                      found.size() - 1);
            result.neighbor[static_cast<std::size_t>(i) * k + j] =
                found[src].second;
            result.distance_squared[static_cast<std::size_t>(i) * k + j] =
                found[src].first;
          }
        }
      });
  return result;
}

KnnResult hnsw_knn(const la::DenseMatrix& points, Index k,
                   const HnswOptions& options, Index num_threads) {
  const HnswIndex index(points, options, num_threads);
  return index.knn_all(k, num_threads);
}

}  // namespace sgl::knn
