#include "graph/graph.hpp"

#include <algorithm>
#include <utility>

namespace sgl::graph {

la::Vector Graph::weighted_degrees() const {
  la::Vector d(static_cast<std::size_t>(num_nodes_), 0.0);
  for (const Edge& e : edges_) {
    d[static_cast<std::size_t>(e.s)] += e.weight;
    d[static_cast<std::size_t>(e.t)] += e.weight;
  }
  return d;
}

la::CsrMatrix Graph::laplacian() const {
  return assemble_laplacian(kInvalidIndex);
}

la::CsrMatrix Graph::reduced_laplacian(Index ground) const {
  SGL_EXPECTS(ground >= 0 && ground < num_nodes_,
              "reduced_laplacian: ground node out of range");
  return assemble_laplacian(ground);
}

la::CsrMatrix Graph::assemble_laplacian(Index ground) const {
  // Row-by-row assembly that is bit-identical to from_triplets over the
  // stamp list (s,s,w), (t,t,w), (s,t,−w), (t,s,−w) per edge, then a
  // structural-zero (i,i,0) per node — isolated nodes still need their
  // diagonal slot for factorization codes. from_triplets buckets that list
  // by row stably, so row r's run is, per incident edge in edge order,
  // (r, w) then (other, −w), closed by (r, 0). It then std::sorts each run
  // by column and sums duplicates in sorted order. A run holds 2·deg+1
  // entries, so from degree 8 the sort is libstdc++'s unstable introsort
  // and its output order fixes how the diagonal rounds. Sorting the
  // (col, value) run with the same comparator makes the same comparisons
  // and moves, hence the same CSR bit for bit; summing in edge order
  // instead moves coarse-level diagonals by an ulp.
  //
  // With a ground node the stamp list is the grounded one: stamps on the
  // ground's row or column are dropped, the other indices shift down past
  // it, and no structural zeros are added — a run is then, per incident
  // edge, (r, w) and, unless the other end is the ground, (other, −w).
  struct Stamp {
    Index col;
    Real value;
  };
  const bool grounded = ground != kInvalidIndex;
  const auto reduced = [grounded, ground](Index v) {
    return grounded && v > ground ? v - 1 : v;
  };
  const Index rows = grounded ? num_nodes_ - 1 : num_nodes_;
  const std::size_t n = static_cast<std::size_t>(rows);
  std::vector<Index> run_ptr(n + 1, 0);
  for (const Edge& e : edges_) {
    const Index both = (e.s != ground && e.t != ground) ? 2 : 1;
    if (e.s != ground) run_ptr[static_cast<std::size_t>(reduced(e.s)) + 1] += both;
    if (e.t != ground) run_ptr[static_cast<std::size_t>(reduced(e.t)) + 1] += both;
  }
  const Index closing = grounded ? 0 : 1;
  for (std::size_t i = 0; i < n; ++i) run_ptr[i + 1] += run_ptr[i] + closing;

  std::vector<Stamp> stamps(static_cast<std::size_t>(run_ptr[n]));
  std::vector<Index> cursor(run_ptr.begin(), run_ptr.end() - 1);
  for (const Edge& e : edges_) {
    const bool s_live = e.s != ground;
    const bool t_live = e.t != ground;
    const Index s = reduced(e.s);
    const Index t = reduced(e.t);
    if (s_live) {
      Index& ps = cursor[static_cast<std::size_t>(s)];
      stamps[static_cast<std::size_t>(ps++)] = {s, e.weight};
      if (t_live) stamps[static_cast<std::size_t>(ps++)] = {t, -e.weight};
    }
    if (t_live) {
      Index& pt = cursor[static_cast<std::size_t>(t)];
      stamps[static_cast<std::size_t>(pt++)] = {t, e.weight};
      if (s_live) stamps[static_cast<std::size_t>(pt++)] = {s, -e.weight};
    }
  }
  if (!grounded) {
    for (std::size_t i = 0; i < n; ++i)
      stamps[static_cast<std::size_t>(cursor[i])] = {static_cast<Index>(i), 0.0};
  }

  // Sort each run, then compact it in place: the write position never
  // passes the read position, so the runs need no second buffer.
  std::vector<Index> row_ptr(n + 1, 0);
  std::size_t out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto lo = stamps.begin() + run_ptr[i];
    const auto hi = stamps.begin() + run_ptr[i + 1];
    std::sort(lo, hi,
              [](const Stamp& a, const Stamp& b) { return a.col < b.col; });
    const std::size_t row_start = out;
    for (auto it = lo; it != hi; ++it) {
      if (out > row_start && stamps[out - 1].col == it->col)
        stamps[out - 1].value += it->value;  // duplicate stamp: accumulate
      else
        stamps[out++] = *it;
    }
    row_ptr[i + 1] = static_cast<Index>(out);
  }

  std::vector<Index> col_idx(out);
  std::vector<Real> values(out);
  for (std::size_t k = 0; k < out; ++k) {
    col_idx[k] = stamps[k].col;
    values[k] = stamps[k].value;
  }
  return la::CsrMatrix(rows, rows, std::move(row_ptr), std::move(col_idx),
                       std::move(values));
}

la::CsrMatrix Graph::adjacency() const {
  std::vector<la::Triplet> triplets;
  triplets.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) {
    triplets.push_back({e.s, e.t, e.weight});
    triplets.push_back({e.t, e.s, e.weight});
  }
  return la::CsrMatrix::from_triplets(num_nodes_, num_nodes_, triplets);
}

AdjacencyList Graph::adjacency_list() const {
  AdjacencyList adj;
  adj.row_ptr.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (const Edge& e : edges_) {
    ++adj.row_ptr[static_cast<std::size_t>(e.s) + 1];
    ++adj.row_ptr[static_cast<std::size_t>(e.t) + 1];
  }
  for (std::size_t i = 1; i < adj.row_ptr.size(); ++i)
    adj.row_ptr[i] += adj.row_ptr[i - 1];

  adj.neighbor.resize(edges_.size() * 2);
  adj.weight.resize(edges_.size() * 2);
  adj.edge_id.resize(edges_.size() * 2);
  std::vector<Index> cursor(adj.row_ptr.begin(), adj.row_ptr.end() - 1);
  for (Index id = 0; id < num_edges(); ++id) {
    const Edge& e = edges_[static_cast<std::size_t>(id)];
    Index p = cursor[static_cast<std::size_t>(e.s)]++;
    adj.neighbor[static_cast<std::size_t>(p)] = e.t;
    adj.weight[static_cast<std::size_t>(p)] = e.weight;
    adj.edge_id[static_cast<std::size_t>(p)] = id;
    p = cursor[static_cast<std::size_t>(e.t)]++;
    adj.neighbor[static_cast<std::size_t>(p)] = e.s;
    adj.weight[static_cast<std::size_t>(p)] = e.weight;
    adj.edge_id[static_cast<std::size_t>(p)] = id;
  }
  return adj;
}

}  // namespace sgl::graph
