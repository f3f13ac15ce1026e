// Undirected weighted graph type used across the library.
//
// A Graph is a node count plus an edge list; Laplacian/adjacency matrices
// and CSR-style adjacency structures are derived on demand. Edge weights
// are conductances in the resistor-network interpretation: the Laplacian
// L = D − W is exactly the nodal admittance matrix of the network.
#pragma once

#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "la/sparse.hpp"

namespace sgl::graph {

/// One undirected weighted edge. Stored with s < t canonically when built
/// through Graph::add_edge.
struct Edge {
  Index s = 0;
  Index t = 0;
  Real weight = 1.0;
};

/// CSR-style adjacency: for node u, neighbors are
/// neighbor[row_ptr[u] .. row_ptr[u+1]) with matching weight/edge ids.
struct AdjacencyList {
  std::vector<Index> row_ptr;
  std::vector<Index> neighbor;
  std::vector<Real> weight;
  std::vector<Index> edge_id;

  [[nodiscard]] Index num_nodes() const noexcept {
    return to_index(row_ptr.size()) - 1;
  }
  [[nodiscard]] Index degree(Index u) const {
    return row_ptr[static_cast<std::size_t>(u) + 1] -
           row_ptr[static_cast<std::size_t>(u)];
  }
};

class Graph {
 public:
  Graph() = default;

  /// Graph with n isolated nodes.
  explicit Graph(Index num_nodes) : num_nodes_(num_nodes) {
    SGL_EXPECTS(num_nodes >= 0, "Graph: negative node count");
  }

  [[nodiscard]] Index num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] Index num_edges() const noexcept {
    return to_index(edges_.size());
  }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] const Edge& edge(Index e) const {
    SGL_EXPECTS(e >= 0 && e < num_edges(), "edge: index out of range");
    return edges_[static_cast<std::size_t>(e)];
  }

  /// Adds edge {s, t} with positive weight; stores endpoints as (min, max).
  /// Self-loops are rejected; parallel edges are allowed and their weights
  /// sum in the Laplacian (circuit stamping semantics).
  void add_edge(Index s, Index t, Real weight = 1.0) {
    SGL_EXPECTS(s >= 0 && s < num_nodes_ && t >= 0 && t < num_nodes_,
                "add_edge: endpoint out of range");
    SGL_EXPECTS(s != t, "add_edge: self-loops are not representable");
    SGL_EXPECTS(weight > 0.0, "add_edge: weight must be positive");
    if (s > t) std::swap(s, t);
    edges_.push_back({s, t, weight});
  }

  /// Multiplies every edge weight by alpha > 0 (paper eq. 23 scaling).
  void scale_weights(Real alpha) {
    SGL_EXPECTS(alpha > 0.0, "scale_weights: alpha must be positive");
    for (Edge& e : edges_) e.weight *= alpha;
  }

  /// Overwrites the weight of edge e.
  void set_weight(Index e, Real weight) {
    SGL_EXPECTS(e >= 0 && e < num_edges(), "set_weight: index out of range");
    SGL_EXPECTS(weight > 0.0, "set_weight: weight must be positive");
    edges_[static_cast<std::size_t>(e)].weight = weight;
  }

  /// |E| / |V| — the "density" the paper reports (≈1 for trees).
  [[nodiscard]] Real density() const {
    SGL_EXPECTS(num_nodes_ > 0, "density: empty graph");
    return static_cast<Real>(num_edges()) / static_cast<Real>(num_nodes_);
  }

  /// Sum of all edge weights.
  [[nodiscard]] Real total_weight() const {
    Real acc = 0.0;
    for (const Edge& e : edges_) acc += e.weight;
    return acc;
  }

  /// Weighted degree (sum of incident conductances) of every node.
  [[nodiscard]] la::Vector weighted_degrees() const;

  /// Graph Laplacian L = D − W as CSR (paper eq. 3).
  [[nodiscard]] la::CsrMatrix laplacian() const;

  /// L with row and column `ground` deleted (node i > ground becomes
  /// i − 1): the reduced system solver::grounded_laplacian returns.
  [[nodiscard]] la::CsrMatrix reduced_laplacian(Index ground) const;

  /// Weighted adjacency matrix W as CSR.
  [[nodiscard]] la::CsrMatrix adjacency() const;

  /// CSR adjacency structure with edge ids (for traversals and MST).
  [[nodiscard]] AdjacencyList adjacency_list() const;

 private:
  /// Row-by-row assembly behind laplacian() (ground == kInvalidIndex)
  /// and reduced_laplacian(ground).
  [[nodiscard]] la::CsrMatrix assemble_laplacian(Index ground) const;

  Index num_nodes_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace sgl::graph
