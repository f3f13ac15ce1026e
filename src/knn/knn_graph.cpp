#include "knn/knn_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "graph/components.hpp"

namespace sgl::knn {

namespace {

/// Closest cross-component pair found by one scan chunk.
struct CrossPair {
  Real distance = std::numeric_limits<Real>::infinity();
  Index s = kInvalidIndex;
  Index t = kInvalidIndex;
};

/// Adds the minimum-distance edge between every smaller component and the
/// rest until one component remains. Each pass scans all cross pairs from
/// the smallest component, so the repair is O(components · N² · M) in the
/// worst case — components are rare for mesh-like measurement manifolds,
/// so the exact scan is fine; its rows are searched in parallel with a
/// deterministic chunk-ordered reduction (strict < keeps the earliest
/// minimum, exactly like the serial scan).
void connect_components(graph::Graph& g, const la::DenseMatrix& x,
                        Real weight_numerator, Real floor2,
                        Index num_threads) {
  const Index dim = x.cols();
  std::vector<Real> data;  // row-major copy, made only if a repair is due
  for (;;) {
    const graph::Components comp = graph::connected_components(g);
    if (comp.count <= 1) return;
    if (data.empty()) data = to_row_major(x);

    // Pick the smallest component and link it to its nearest outside node.
    std::vector<Index> size(static_cast<std::size_t>(comp.count), 0);
    for (const Index c : comp.label) ++size[static_cast<std::size_t>(c)];
    const Index smallest = to_index(static_cast<std::size_t>(
        std::min_element(size.begin(), size.end()) - size.begin()));

    const CrossPair best = parallel::parallel_reduce(
        0, g.num_nodes(), num_threads, CrossPair{},
        [&](Index lo, Index hi) {
          CrossPair local;
          for (Index s = lo; s < hi; ++s) {
            if (comp.label[static_cast<std::size_t>(s)] != smallest) continue;
            for (Index t = 0; t < g.num_nodes(); ++t) {
              if (comp.label[static_cast<std::size_t>(t)] == smallest) continue;
              const Real d = point_distance_squared(data, dim, s, t);
              if (d < local.distance) local = {d, s, t};
            }
          }
          return local;
        },
        [](const CrossPair& a, const CrossPair& b) {
          return b.distance < a.distance ? b : a;
        });
    SGL_ASSERT(best.s != kInvalidIndex, "connect_components: no cross pair");
    g.add_edge(best.s, best.t,
               weight_numerator / std::max(best.distance, floor2));
  }
}

/// Boundary check on the measurements, one O(N·M) pass:
/// every entry must be finite, and 4·M·max|x|² — the bound on any squared
/// distance Σ(a_d − b_d)² ≤ M·(2·max|x|)² — must be representable, so no
/// distance can overflow to inf and turn into a zero edge weight deep in
/// graph construction. Reports the lowest offending row (and its lowest
/// offending column).
void check_measurements(const la::DenseMatrix& x) {
  const Index n = x.rows();
  const Index m = x.cols();
  const Real limit = std::sqrt(std::numeric_limits<Real>::max() /
                               (4.0 * static_cast<Real>(m)));
  Index bad_row = n;
  Index bad_col = 0;
  for (Index j = 0; j < m; ++j) {
    const auto cj = x.col(j);
    for (Index i = 0; i < bad_row; ++i) {
      // Written as !(|v| <= limit) so nan fails it too.
      if (!(std::abs(cj[i]) <= limit)) {
        bad_row = i;
        bad_col = j;
        break;
      }
    }
  }
  if (bad_row == n) return;
  const Real v = x(bad_row, bad_col);
  std::ostringstream os;
  os << "build_knn_graph: measurement row " << bad_row << " (column "
     << bad_col << ") holds " << v;
  if (std::isfinite(v))
    os << ", beyond the magnitude " << limit
       << " up to which squared distances stay representable";
  else
    os << ", which is not finite";
  throw ContractViolation(os.str());
}

}  // namespace

graph::Graph build_knn_graph(const la::DenseMatrix& x,
                             const KnnGraphOptions& options) {
  const Index n = x.rows();
  const Index m = x.cols();
  SGL_EXPECTS(n >= 2, "build_knn_graph: need at least two points");
  SGL_EXPECTS(options.k >= 1 && options.k < n,
              "build_knn_graph: need 1 <= k < N");
  check_measurements(x);

  KnnBackend backend = options.backend;
  if (backend == KnnBackend::kAuto) {
    backend = (n <= 4096) ? KnnBackend::kBruteForce : KnnBackend::kHnsw;
  }
  const KnnResult knn =
      (backend == KnnBackend::kBruteForce)
          ? brute_force_knn(x, options.k, options.num_threads)
          : hnsw_knn(x, options.k, options.hnsw, options.num_threads);

  // Median neighbor distance defines the duplicate-point floor. The floor
  // is purely relative to the median so that rescaling the data rescales
  // every weight uniformly; the absolute epsilon only matters when the
  // median itself is zero (all points coincident) and is small enough
  // never to clamp a genuine distance.
  std::vector<Real> dists = knn.distance_squared;
  const auto mid =
      dists.begin() + static_cast<std::ptrdiff_t>(dists.size() / 2);
  std::nth_element(dists.begin(), mid, dists.end());
  const Real median = *mid;
  const Real floor2 =
      std::max(options.distance_floor_rel * median, Real{1e-300});

  // Symmetrize by union; keep the smaller distance if both directions hit.
  // Each hit becomes a packed (min, max) endpoint key with its distance;
  // sorting the (key, distance) pairs puts every pair's hits together,
  // smallest distance first, in ascending (min, max) order — the edge
  // order of the graph.
  std::vector<std::pair<std::uint64_t, Real>> hits;
  hits.reserve(knn.neighbor.size());
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < knn.k; ++j) {
      const std::size_t at = static_cast<std::size_t>(i) * knn.k + j;
      const Index nb = knn.neighbor[at];
      if (nb == i || nb == kInvalidIndex) continue;
      const auto [lo, hi] = std::minmax(i, nb);
      const std::uint64_t key = (static_cast<std::uint64_t>(lo) << 32) |
                                static_cast<std::uint32_t>(hi);
      hits.emplace_back(key, knn.distance_squared[at]);
    }
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }),
             hits.end());

  const Real weight_numerator = static_cast<Real>(m);
  graph::Graph g(n);
  for (const auto& [key, d] : hits) {
    g.add_edge(static_cast<Index>(key >> 32),
               static_cast<Index>(key & 0xffffffffu),
               weight_numerator / std::max(d, floor2));
  }

  if (options.ensure_connected)
    connect_components(g, x, weight_numerator, floor2, options.num_threads);
  return g;
}

}  // namespace sgl::knn
