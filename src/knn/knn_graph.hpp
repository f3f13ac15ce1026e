// kNN graph construction from measurement data (SGL Step 1 substrate).
//
// Nodes are rows of the voltage measurement matrix X ∈ R^{N×M}; the graph
// connects each node to its k nearest rows with the paper's similarity
// weight w_st = M / ‖X(s,:) − X(t,:)‖² (eq. 15), so that low data distance
// means high conductance. Neighbor lists are symmetrized by union, and the
// graph is optionally repaired to a single connected component (SGL needs
// a connected candidate graph to extract a spanning tree).
#pragma once

#include "graph/graph.hpp"
#include "knn/brute_force.hpp"
#include "knn/hnsw.hpp"

namespace sgl::knn {

enum class KnnBackend {
  kBruteForce,
  kHnsw,
  /// The exact scan up to 4,096 points, HNSW above (a pure function of
  /// N). On measurement data HNSW at the default options gives the scan's
  /// graph and overtakes it near 3,000 points at 4 threads; but on
  /// random-geometric data at 1 thread, and on unstructured
  /// high-dimensional points at any thread count, the scan stays faster
  /// through 4,096 (DESIGN.md §9).
  kAuto,
};

struct KnnGraphOptions {
  Index k = 5;
  KnnBackend backend = KnnBackend::kAuto;
  HnswOptions hnsw;
  /// Join components with their nearest cross-component pairs until the
  /// graph is connected.
  bool ensure_connected = true;
  /// Floor for distances when converting to weights, relative to the
  /// median neighbor distance (guards duplicate points). Purely relative,
  /// so uniformly rescaling the data rescales every weight by the same
  /// factor; a tiny absolute epsilon kicks in only when the median itself
  /// is zero (all points coincident).
  Real distance_floor_rel = 1e-12;
  /// Worker threads for neighbor search and the connectivity repair scan
  /// (0 = library default from SGL_NUM_THREADS/hardware, 1 = serial).
  /// Results are identical for every thread count.
  Index num_threads = 0;
};

/// Builds the weighted kNN graph over the rows of `x`. Throws
/// ContractViolation (ErrorCode::kInvalidArgument) naming the row when an
/// entry of `x` is not finite or so large that a squared distance could
/// overflow (4·M·max|x|² not representable).
[[nodiscard]] graph::Graph build_knn_graph(const la::DenseMatrix& x,
                                           const KnnGraphOptions& options = {});

}  // namespace sgl::knn
