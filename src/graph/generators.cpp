#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>

#include "graph/components.hpp"
#include "graph/mst.hpp"
#include "graph/union_find.hpp"

namespace sgl::graph {

namespace {

/// True when the product of the positive sizes `dims` fits Index, the
/// node-id type. Checked factor by factor, so nothing overflows.
bool node_count_fits(std::initializer_list<Index> dims) {
  std::int64_t count = 1;
  for (const Index d : dims) {
    if (count > std::numeric_limits<Index>::max() / d) return false;
    count *= d;
  }
  return true;
}

}  // namespace

Graph make_path(Index n, Real weight) {
  SGL_EXPECTS(n >= 1, "make_path: need at least one node");
  Graph g(n);
  for (Index i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1, weight);
  return g;
}

Graph make_cycle(Index n, Real weight) {
  SGL_EXPECTS(n >= 3, "make_cycle: need at least three nodes");
  Graph g = make_path(n, weight);
  g.add_edge(n - 1, 0, weight);
  return g;
}

Graph make_star(Index n, Real weight) {
  SGL_EXPECTS(n >= 2, "make_star: need at least two nodes");
  Graph g(n);
  for (Index i = 1; i < n; ++i) g.add_edge(0, i, weight);
  return g;
}

Graph make_complete(Index n, Real weight) {
  SGL_EXPECTS(n >= 1, "make_complete: need at least one node");
  Graph g(n);
  for (Index i = 0; i < n; ++i)
    for (Index j = i + 1; j < n; ++j) g.add_edge(i, j, weight);
  return g;
}

MeshGraph make_grid2d(Index nx, Index ny, bool periodic, Real weight) {
  SGL_EXPECTS(nx >= 1 && ny >= 1, "make_grid2d: degenerate size");
  SGL_EXPECTS(!periodic || (nx >= 3 && ny >= 3),
              "make_grid2d: periodic grid needs nx, ny >= 3");
  SGL_EXPECTS(node_count_fits({nx, ny}),
              "make_grid2d: nx * ny nodes overflow the node index type");
  MeshGraph mesh;
  mesh.graph = Graph(nx * ny);
  mesh.coords.resize(static_cast<std::size_t>(nx) * ny);
  const auto id = [nx](Index x, Index y) { return y * nx + x; };
  for (Index y = 0; y < ny; ++y) {
    for (Index x = 0; x < nx; ++x) {
      mesh.coords[static_cast<std::size_t>(id(x, y))] = {
          static_cast<Real>(x), static_cast<Real>(y)};
      if (x + 1 < nx) mesh.graph.add_edge(id(x, y), id(x + 1, y), weight);
      else if (periodic) mesh.graph.add_edge(id(x, y), id(0, y), weight);
      if (y + 1 < ny) mesh.graph.add_edge(id(x, y), id(x, y + 1), weight);
      else if (periodic) mesh.graph.add_edge(id(x, y), id(x, 0), weight);
    }
  }
  return mesh;
}

Graph make_grid3d(Index nx, Index ny, Index nz, Real weight) {
  SGL_EXPECTS(nx >= 1 && ny >= 1 && nz >= 1, "make_grid3d: degenerate size");
  SGL_EXPECTS(node_count_fits({nx, ny, nz}),
              "make_grid3d: nx * ny * nz nodes overflow the node index type");
  Graph g(nx * ny * nz);
  const auto id = [nx, ny](Index x, Index y, Index z) {
    return (z * ny + y) * nx + x;
  };
  for (Index z = 0; z < nz; ++z)
    for (Index y = 0; y < ny; ++y)
      for (Index x = 0; x < nx; ++x) {
        if (x + 1 < nx) g.add_edge(id(x, y, z), id(x + 1, y, z), weight);
        if (y + 1 < ny) g.add_edge(id(x, y, z), id(x, y + 1, z), weight);
        if (z + 1 < nz) g.add_edge(id(x, y, z), id(x, y, z + 1), weight);
      }
  return g;
}

Graph make_erdos_renyi(Index n, Real p, Rng& rng) {
  SGL_EXPECTS(n >= 1, "make_erdos_renyi: need at least one node");
  SGL_EXPECTS(p >= 0.0 && p <= 1.0, "make_erdos_renyi: p out of [0,1]");
  Graph g(n);
  for (Index i = 0; i < n; ++i)
    for (Index j = i + 1; j < n; ++j)
      if (rng.uniform() < p) g.add_edge(i, j, 1.0);
  return g;
}

MeshGraph make_random_geometric(Index n, Real radius, Rng& rng) {
  SGL_EXPECTS(n >= 1, "make_random_geometric: need at least one node");
  SGL_EXPECTS(radius > 0.0, "make_random_geometric: radius must be positive");
  MeshGraph mesh;
  mesh.graph = Graph(n);
  mesh.coords.resize(static_cast<std::size_t>(n));
  for (auto& c : mesh.coords) c = {rng.uniform(), rng.uniform()};
  const Real r2 = radius * radius;
  for (Index i = 0; i < n; ++i)
    for (Index j = i + 1; j < n; ++j) {
      const Real dx = mesh.coords[static_cast<std::size_t>(i)][0] -
                      mesh.coords[static_cast<std::size_t>(j)][0];
      const Real dy = mesh.coords[static_cast<std::size_t>(i)][1] -
                      mesh.coords[static_cast<std::size_t>(j)][1];
      if (dx * dx + dy * dy <= r2) mesh.graph.add_edge(i, j, 1.0);
    }
  return mesh;
}

namespace {

/// Keeps only the largest connected component of a mesh and relabels
/// nodes contiguously (coords follow).
MeshGraph largest_component(const MeshGraph& mesh) {
  const Components comp = connected_components(mesh.graph);
  std::vector<Index> size(static_cast<std::size_t>(comp.count), 0);
  for (const Index c : comp.label) ++size[static_cast<std::size_t>(c)];
  const Index best = to_index(static_cast<std::size_t>(
      std::max_element(size.begin(), size.end()) - size.begin()));

  std::vector<Index> new_id(static_cast<std::size_t>(mesh.graph.num_nodes()),
                            kInvalidIndex);
  MeshGraph out;
  Index next = 0;
  for (Index v = 0; v < mesh.graph.num_nodes(); ++v) {
    if (comp.label[static_cast<std::size_t>(v)] == best) {
      new_id[static_cast<std::size_t>(v)] = next++;
      out.coords.push_back(mesh.coords[static_cast<std::size_t>(v)]);
    }
  }
  out.graph = Graph(next);
  for (const Edge& e : mesh.graph.edges()) {
    const Index s = new_id[static_cast<std::size_t>(e.s)];
    const Index t = new_id[static_cast<std::size_t>(e.t)];
    if (s != kInvalidIndex && t != kInvalidIndex)
      out.graph.add_edge(s, t, e.weight);
  }
  return out;
}

bool inside_any_hole(Real x, Real y,
                     const std::vector<std::array<Real, 4>>& holes) {
  for (const auto& h : holes) {
    const Real dx = (x - h[0]) / h[2];
    const Real dy = (y - h[1]) / h[3];
    if (dx * dx + dy * dy < 1.0) return true;
  }
  return false;
}

}  // namespace

MeshGraph make_triangulated_mesh(const TriMeshOptions& options) {
  const Index nx = options.nx;
  const Index ny = options.ny;
  SGL_EXPECTS(nx >= 2 && ny >= 2, "make_triangulated_mesh: degenerate size");
  SGL_EXPECTS(node_count_fits({nx, ny}),
              "make_triangulated_mesh: nx * ny nodes overflow the node index "
              "type");
  SGL_EXPECTS(options.weight_jitter >= 1.0,
              "make_triangulated_mesh: jitter must be >= 1");
  Rng rng(options.seed);

  MeshGraph mesh;
  mesh.graph = Graph(nx * ny);
  mesh.coords.resize(static_cast<std::size_t>(nx) * ny);
  std::vector<bool> keep(static_cast<std::size_t>(nx) * ny, true);
  const auto id = [nx](Index x, Index y) { return y * nx + x; };
  for (Index y = 0; y < ny; ++y)
    for (Index x = 0; x < nx; ++x) {
      mesh.coords[static_cast<std::size_t>(id(x, y))] = {
          static_cast<Real>(x), static_cast<Real>(y)};
      keep[static_cast<std::size_t>(id(x, y))] = !inside_any_hole(
          static_cast<Real>(x), static_cast<Real>(y), options.holes);
    }

  const auto weight = [&rng, &options]() {
    if (options.weight_jitter == 1.0) return Real{1.0};
    const Real lo = std::log(1.0 / options.weight_jitter);
    const Real hi = std::log(options.weight_jitter);
    return std::exp(rng.uniform(lo, hi));
  };
  const auto add = [&](Index a, Index b) {
    if (keep[static_cast<std::size_t>(a)] && keep[static_cast<std::size_t>(b)])
      mesh.graph.add_edge(a, b, weight());
  };

  for (Index y = 0; y < ny; ++y)
    for (Index x = 0; x < nx; ++x) {
      if (x + 1 < nx) add(id(x, y), id(x + 1, y));
      if (y + 1 < ny) add(id(x, y), id(x, y + 1));
      // Alternating diagonals produce the classic "union jack"-free
      // triangulation with average interior degree 6.
      if (x + 1 < nx && y + 1 < ny) {
        if ((x + y) % 2 == 0) add(id(x, y), id(x + 1, y + 1));
        else add(id(x + 1, y), id(x, y + 1));
      }
    }
  return largest_component(mesh);
}

MeshGraph make_airfoil_surrogate() {
  TriMeshOptions opt;
  opt.nx = 76;
  opt.ny = 64;
  // One elongated elliptical cut-out mimicking the airfoil void.
  opt.holes = {{37.5, 31.5, 24.0, 8.5}};
  opt.seed = 101;
  return make_triangulated_mesh(opt);
}

MeshGraph make_crack_surrogate() {
  TriMeshOptions opt;
  opt.nx = 116;
  opt.ny = 90;
  // A thin horizontal slit: the crack.
  opt.holes = {{57.5, 44.5, 40.0, 1.2}};
  opt.seed = 102;
  return make_triangulated_mesh(opt);
}

MeshGraph make_fe4elt2_surrogate() {
  TriMeshOptions opt;
  opt.nx = 112;
  opt.ny = 102;
  // Four holes, nodding to the "4elt" family of FE meshes.
  opt.holes = {{28.0, 25.0, 9.0, 7.0},
               {84.0, 25.0, 9.0, 7.0},
               {28.0, 76.0, 9.0, 7.0},
               {84.0, 76.0, 9.0, 7.0}};
  opt.seed = 103;
  return make_triangulated_mesh(opt);
}

MeshGraph make_circuit_grid(Index nx, Index ny, Index target_edges,
                            Real weight_lo, Real weight_hi,
                            std::uint64_t seed) {
  SGL_EXPECTS(nx >= 2 && ny >= 2, "make_circuit_grid: degenerate size");
  SGL_EXPECTS(weight_lo > 0.0 && weight_hi >= weight_lo,
              "make_circuit_grid: bad weight range");
  Rng rng(seed);
  MeshGraph grid = make_grid2d(nx, ny, /*periodic=*/false);

  // Re-draw conductances log-uniformly in [weight_lo, weight_hi], the
  // standard model for power-grid resistor variation.
  MeshGraph mesh;
  mesh.coords = grid.coords;
  mesh.graph = Graph(grid.graph.num_nodes());
  const Real llo = std::log(weight_lo);
  const Real lhi = std::log(weight_hi);
  for (const Edge& e : grid.graph.edges())
    mesh.graph.add_edge(e.s, e.t, std::exp(rng.uniform(llo, lhi)));

  const Index full_edges = mesh.graph.num_edges();
  if (target_edges <= 0 || target_edges >= full_edges) return mesh;
  SGL_EXPECTS(target_edges >= mesh.graph.num_nodes() - 1,
              "make_circuit_grid: target below spanning-tree size");

  // Thin to the target edge count while preserving connectivity: protect a
  // spanning tree, then drop a random subset of the remaining edges.
  const std::vector<Index> tree = maximum_spanning_forest(mesh.graph);
  std::vector<bool> in_tree(static_cast<std::size_t>(full_edges), false);
  for (const Index id : tree) in_tree[static_cast<std::size_t>(id)] = true;
  std::vector<Index> removable;
  for (Index e = 0; e < full_edges; ++e)
    if (!in_tree[static_cast<std::size_t>(e)]) removable.push_back(e);
  shuffle(removable, rng);

  const Index to_remove = full_edges - target_edges;
  SGL_EXPECTS(to_remove <= to_index(removable.size()),
              "make_circuit_grid: cannot reach target while staying connected");
  std::vector<bool> drop(static_cast<std::size_t>(full_edges), false);
  for (Index i = 0; i < to_remove; ++i)
    drop[static_cast<std::size_t>(removable[static_cast<std::size_t>(i)])] = true;

  MeshGraph out;
  out.coords = mesh.coords;
  out.graph = Graph(mesh.graph.num_nodes());
  for (Index e = 0; e < full_edges; ++e) {
    if (drop[static_cast<std::size_t>(e)]) continue;
    const Edge& ed = mesh.graph.edge(e);
    out.graph.add_edge(ed.s, ed.t, ed.weight);
  }
  return out;
}

MeshGraph make_g2_circuit_surrogate(std::uint64_t seed) {
  // 388 × 387 = 150,156 nodes (paper: 150,102), thinned to the paper's
  // exact |E| = 288,286 with conductances spread over one decade.
  return make_circuit_grid(388, 387, 288286, 0.5, 5.0, seed);
}

}  // namespace sgl::graph
