// FNV-1a graph fingerprints (DESIGN.md §8, §10).
//
// A GraphKey identifies a graph state without storing it: node and edge
// counts plus two 64-bit digests over the edge list — one over the
// endpoints (pattern identity), one over the endpoints and every weight's
// bit pattern (numeric identity: two graphs with equal weight digests
// produce bitwise-identical Laplacians). SolverContext hands back its
// warm solver when the key is unchanged; the serving tier keys its
// factorization LRU on the same key.
#pragma once

#include <compare>
#include <cstdint>

#include "graph/graph.hpp"

namespace sgl::graph {

/// Full identity of one graph state: node/edge counts plus both digests.
/// Totally ordered so deterministic containers (std::map) can key on it.
struct GraphKey {
  Index num_nodes = 0;
  Index num_edges = 0;
  std::uint64_t endpoints = 0;
  std::uint64_t weights = 0;

  friend auto operator<=>(const GraphKey&, const GraphKey&) = default;
};

/// Key of the CURRENT state of `g` (fingerprints over all edges).
[[nodiscard]] GraphKey graph_key(const Graph& g);

}  // namespace sgl::graph
