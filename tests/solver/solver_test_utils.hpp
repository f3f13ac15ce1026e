// Shared helpers for the solver test modules. The grounded SPD systems
// come from the production solver::grounded_laplacian (re-exported by the
// include below), so tests always factor the exact matrix the library
// factors.
#pragma once

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "la/multi_vector.hpp"
#include "solver/laplacian_solver.hpp"

namespace sgl::solver {

/// Seeded dense right-hand-side block (columns filled in order, so the
/// values are reproducible across tests and thread counts).
inline la::MultiVector random_block_rhs(Index rows, Index cols,
                                        std::uint64_t seed) {
  Rng rng(seed);
  la::MultiVector b(rows, cols);
  for (Index j = 0; j < cols; ++j)
    for (Real& v : b.col(j)) v = rng.normal();
  return b;
}

/// gtest-safe method name ("pcg-amg" → "pcg_amg"), so parameterized test
/// names follow the method rather than its enum value.
inline std::string method_test_name(LaplacianMethod method) {
  std::string name = laplacian_method_name(method);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// The shape of an SGL iterate: a maximum spanning tree of an nx × ny
/// grid plus `extras` seeded off-tree edges (the εN densification), so
/// most nodes have degree ≤ 2 and every solver sees a near-tree.
inline graph::Graph ultra_sparse_graph(Index nx, Index ny, Index extras,
                                       std::uint64_t seed) {
  const graph::Graph mesh = graph::make_grid2d(nx, ny).graph;
  graph::Graph g =
      graph::subgraph_from_edges(mesh, graph::maximum_spanning_forest(mesh));
  Rng rng(seed);
  const Index n = g.num_nodes();
  for (Index k = 0; k < extras; ++k) {
    const Index s = rng.uniform_int(n);
    const Index t = rng.uniform_int(n);
    if (s != t) g.add_edge(s, t, 1.0);
  }
  return g;
}

/// `g` with every edge weight multiplied by its own seeded factor in
/// [0.5, 1.5): same endpoints, hence the same grounded pattern, and other
/// values — a resistor-value variant of one netlist.
inline graph::Graph jittered_weights(const graph::Graph& g, std::uint64_t seed) {
  graph::Graph out = g;
  Rng rng(seed);
  for (Index e = 0; e < out.num_edges(); ++e)
    out.set_weight(e, out.edges()[static_cast<std::size_t>(e)].weight *
                          rng.uniform(0.5, 1.5));
  return out;
}

/// Two k-cliques joined by a `bridge`-edge path: a bottleneck whose
/// Fiedler value is tiny next to the clique spectra.
inline graph::Graph barbell_graph(Index k, Index bridge) {
  // Clique A is 0..k−1, the path interior k..k+bridge−2, clique B the
  // last k nodes; the path runs k−1 → … → k+bridge−1.
  const Index b0 = k + bridge - 1;
  graph::Graph g(b0 + k);
  for (const Index base : {Index{0}, b0})
    for (Index i = 0; i < k; ++i)
      for (Index j = i + 1; j < k; ++j) g.add_edge(base + i, base + j, 1.0);
  for (Index i = k - 1; i < b0; ++i) g.add_edge(i, i + 1, 1.0);
  return g;
}

}  // namespace sgl::solver
