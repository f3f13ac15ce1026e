// Exact k-nearest-neighbor search by exhaustive scan.
//
// Points are the rows of an N×M matrix (node measurement vectors). The
// scan is O(N²M) — the reference answer for tests and the right choice for
// small N; large instances use the HNSW index (knn/hnsw.hpp).
#pragma once

#include <vector>

#include "la/dense_matrix.hpp"

namespace sgl::knn {

/// Neighbor lists for every point: neighbor/distance_squared are k entries
/// per point, flattened row-major (point i's j-th neighbor at i*k + j),
/// sorted by increasing distance. Self-matches are excluded.
struct KnnResult {
  Index k = 0;
  std::vector<Index> neighbor;
  std::vector<Real> distance_squared;

  [[nodiscard]] Index num_points() const {
    return k > 0 ? to_index(neighbor.size()) / k : 0;
  }
};

/// Exact kNN over the rows of `points`. Requires 1 ≤ k < N. Rows are
/// scanned in parallel (`num_threads` 0 = library default, 1 = serial);
/// the result is identical for every thread count.
[[nodiscard]] KnnResult brute_force_knn(const la::DenseMatrix& points, Index k,
                                        Index num_threads = 0);

/// Row-major copy of a matrix's rows (points), the layout both kNN
/// backends use for cache-friendly distance evaluation.
[[nodiscard]] std::vector<Real> to_row_major(const la::DenseMatrix& points);

/// Squared L2 distance between two length-`dim` points in a row-major
/// buffer — the one distance every kNN path (brute force, HNSW build and
/// search, connectivity repair) uses, so they all agree bit for bit.
///
/// Fixed-lane kernel (DESIGN.md §9): dimension d accumulates diff² into
/// lane d mod 8 (the tail dims land in their own lanes too), and the
/// eight lanes combine in one fixed pairwise tree. The eight independent
/// chains vectorize under the baseline ISA (two SSE2 doubles per lane
/// pair), and because the summation order is spelled out in the source —
/// no reassociation, -march, FMA or ISA dispatch is involved — the result
/// is a pure function of the two points on every host and thread count.
/// Direct differences (not ‖a‖² + ‖b‖² − 2a·b) keep close pairs, which
/// are exactly the kNN edges, free of cancellation; and since
/// (a−b)² == (b−a)² exactly, d(a, b) == d(b, a) bit for bit.
[[nodiscard]] inline Real point_distance_squared(const std::vector<Real>& data,
                                                 Index dim, Index a, Index b) {
  constexpr Index kLanes = 8;
  const Real* pa = data.data() + static_cast<std::size_t>(a) * dim;
  const Real* pb = data.data() + static_cast<std::size_t>(b) * dim;
  Real lane[kLanes] = {};
  Index d = 0;
  for (; d + kLanes <= dim; d += kLanes) {
    for (Index l = 0; l < kLanes; ++l) {
      const Real diff = pa[d + l] - pb[d + l];
      lane[l] += diff * diff;
    }
  }
  for (Index l = 0; d + l < dim; ++l) {
    const Real diff = pa[d + l] - pb[d + l];
    lane[l] += diff * diff;
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

}  // namespace sgl::knn
