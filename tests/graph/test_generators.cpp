// Unit tests for graph generators, including the paper-surrogate meshes.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/components.hpp"
#include "graph/generators.hpp"

namespace sgl::graph {
namespace {

TEST(Generators, PathCycleStarComplete) {
  EXPECT_EQ(make_path(5).num_edges(), 4);
  EXPECT_EQ(make_cycle(5).num_edges(), 5);
  EXPECT_EQ(make_star(5).num_edges(), 4);
  EXPECT_EQ(make_complete(5).num_edges(), 10);
  EXPECT_THROW(make_cycle(2), ContractViolation);
}

TEST(Generators, Grid2dOpenBoundary) {
  const MeshGraph m = make_grid2d(4, 3);
  EXPECT_EQ(m.graph.num_nodes(), 12);
  // Horizontal: 3 per row × 3 rows; vertical: 2 per column × 4 columns.
  EXPECT_EQ(m.graph.num_edges(), 9 + 8);
  EXPECT_EQ(m.coords.size(), 12u);
  EXPECT_TRUE(is_connected(m.graph));
}

TEST(Generators, Grid2dTorusMatchesPaper2dMesh) {
  // The paper's "2D mesh": |V| = 10,000, |E| = 20,000.
  const MeshGraph m = make_grid2d(100, 100, /*periodic=*/true);
  EXPECT_EQ(m.graph.num_nodes(), 10000);
  EXPECT_EQ(m.graph.num_edges(), 20000);
  EXPECT_TRUE(is_connected(m.graph));
}

TEST(Generators, Grid3dEdgeCount) {
  const Graph g = make_grid3d(3, 4, 5);
  EXPECT_EQ(g.num_nodes(), 60);
  // 2·4·5 + 3·3·5 + 3·4·4 = 40 + 45 + 48.
  EXPECT_EQ(g.num_edges(), 133);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, GridNodeCountMustFitIndex) {
  // 65536² and 2048³ are 2³² and 2³³ nodes: rejected before anything is
  // allocated instead of wrapping the int32 product.
  EXPECT_THROW((void)make_grid2d(65536, 65536), ContractViolation);
  EXPECT_THROW((void)make_grid3d(2048, 2048, 2048), ContractViolation);
  EXPECT_THROW((void)make_grid3d(1, 65536, 65536), ContractViolation);
  TriMeshOptions mesh;
  mesh.nx = 65536;
  mesh.ny = 65536;
  EXPECT_THROW((void)make_triangulated_mesh(mesh), ContractViolation);
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(3);
  EXPECT_EQ(make_erdos_renyi(10, 0.0, rng).num_edges(), 0);
  EXPECT_EQ(make_erdos_renyi(10, 1.0, rng).num_edges(), 45);
  EXPECT_THROW(make_erdos_renyi(10, 1.5, rng), ContractViolation);
}

TEST(Generators, RandomGeometricRadiusControlsDensity) {
  Rng rng1(4), rng2(4);
  const MeshGraph sparse = make_random_geometric(100, 0.05, rng1);
  const MeshGraph dense = make_random_geometric(100, 0.3, rng2);
  EXPECT_LT(sparse.graph.num_edges(), dense.graph.num_edges());
}

TEST(Generators, TriangulatedMeshDensityNearThree) {
  TriMeshOptions opt;
  opt.nx = 40;
  opt.ny = 40;
  const MeshGraph m = make_triangulated_mesh(opt);
  EXPECT_EQ(m.graph.num_nodes(), 1600);
  EXPECT_NEAR(m.graph.density(), 3.0, 0.15);
  EXPECT_TRUE(is_connected(m.graph));
}

TEST(Generators, TriangulatedMeshHoleRemovesNodes) {
  TriMeshOptions opt;
  opt.nx = 30;
  opt.ny = 30;
  opt.holes = {{15.0, 15.0, 5.0, 5.0}};
  const MeshGraph m = make_triangulated_mesh(opt);
  EXPECT_LT(m.graph.num_nodes(), 900);
  EXPECT_GT(m.graph.num_nodes(), 700);
  EXPECT_TRUE(is_connected(m.graph));
  EXPECT_EQ(m.coords.size(), static_cast<std::size_t>(m.graph.num_nodes()));
}

TEST(Generators, WeightJitterKeepsWeightsInRange) {
  TriMeshOptions opt;
  opt.nx = 10;
  opt.ny = 10;
  opt.weight_jitter = 2.0;
  const MeshGraph m = make_triangulated_mesh(opt);
  for (const Edge& e : m.graph.edges()) {
    EXPECT_GE(e.weight, 0.5 - 1e-12);
    EXPECT_LE(e.weight, 2.0 + 1e-12);
  }
}

TEST(Generators, AirfoilSurrogateMatchesPaperScale) {
  // Paper airfoil: |V| = 4,253, |E| = 12,289, density 2.89.
  const MeshGraph m = make_airfoil_surrogate();
  EXPECT_NEAR(m.graph.num_nodes(), 4253, 450);
  EXPECT_NEAR(m.graph.density(), 2.89, 0.15);
  EXPECT_TRUE(is_connected(m.graph));
}

TEST(Generators, CrackSurrogateMatchesPaperScale) {
  // Paper crack: |V| = 10,240, |E| = 30,380, density 2.97.
  const MeshGraph m = make_crack_surrogate();
  EXPECT_NEAR(m.graph.num_nodes(), 10240, 600);
  EXPECT_NEAR(m.graph.density(), 2.97, 0.15);
  EXPECT_TRUE(is_connected(m.graph));
}

TEST(Generators, Fe4elt2SurrogateMatchesPaperScale) {
  // Paper fe_4elt2: |V| = 11,143, |E| = 32,818, density 2.945.
  const MeshGraph m = make_fe4elt2_surrogate();
  EXPECT_NEAR(m.graph.num_nodes(), 11143, 700);
  EXPECT_NEAR(m.graph.density(), 2.945, 0.15);
  EXPECT_TRUE(is_connected(m.graph));
}

TEST(Generators, CircuitGridHitsExactEdgeTarget) {
  const MeshGraph m = make_circuit_grid(30, 30, 1500, 0.5, 5.0, 9);
  EXPECT_EQ(m.graph.num_nodes(), 900);
  EXPECT_EQ(m.graph.num_edges(), 1500);
  EXPECT_TRUE(is_connected(m.graph));
  for (const Edge& e : m.graph.edges()) {
    EXPECT_GE(e.weight, 0.5 - 1e-12);
    EXPECT_LE(e.weight, 5.0 + 1e-12);
  }
}

TEST(Generators, CircuitGridRejectsSubTreeTarget) {
  EXPECT_THROW(make_circuit_grid(10, 10, 50, 0.5, 5.0, 1), ContractViolation);
}

TEST(Generators, G2SurrogateMatchesPaperScale) {
  // Paper G2_circuit: |V| = 150,102, |E| = 288,286.
  const MeshGraph m = make_g2_circuit_surrogate();
  EXPECT_NEAR(m.graph.num_nodes(), 150102, 200);
  EXPECT_EQ(m.graph.num_edges(), 288286);
  EXPECT_TRUE(is_connected(m.graph));
}

class GeneratorConnectivitySweep
    : public ::testing::TestWithParam<std::pair<Index, Index>> {};

TEST_P(GeneratorConnectivitySweep, GridsAlwaysConnected) {
  const auto [nx, ny] = GetParam();
  EXPECT_TRUE(is_connected(make_grid2d(nx, ny).graph));
  if (nx >= 3 && ny >= 3) {
    EXPECT_TRUE(is_connected(make_grid2d(nx, ny, true).graph));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeneratorConnectivitySweep,
    ::testing::Values(std::pair<Index, Index>{1, 1},
                      std::pair<Index, Index>{2, 2},
                      std::pair<Index, Index>{3, 3},
                      std::pair<Index, Index>{5, 17},
                      std::pair<Index, Index>{16, 16}));

}  // namespace
}  // namespace sgl::graph
