// Effective resistance by the sparse forward solve over the elimination
// tree (CholeskySolver::difference_energy): agreement with a dense
// pseudo-inverse on every ordering and factor kernel, endpoint symmetry,
// the ground node as an endpoint, and bitwise repeatability across
// repeated calls, interleaved solvers (shared per-thread scratch) and
// threads.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "solver/cholesky.hpp"
#include "solver/laplacian_solver.hpp"
#include "solver_test_utils.hpp"

namespace sgl::solver {
namespace {

enum class Family { kPath, kStar, kBarbell, kUltraSparse, kCircuitGrid, kGrid3d };

graph::Graph family_graph(Family family) {
  switch (family) {
    case Family::kPath: return graph::make_path(40);
    case Family::kStar: return graph::make_star(25);
    case Family::kBarbell: return barbell_graph(8, 6);
    case Family::kUltraSparse: return ultra_sparse_graph(8, 8, 6, 29);
    case Family::kCircuitGrid:
      return graph::make_circuit_grid(7, 7, 0, 0.5, 5.0, 3).graph;
    case Family::kGrid3d: return graph::make_grid3d(4, 4, 4);
  }
  return graph::Graph(0);
}

std::string family_name(Family family) {
  switch (family) {
    case Family::kPath: return "path";
    case Family::kStar: return "star";
    case Family::kBarbell: return "barbell";
    case Family::kUltraSparse: return "ultra_sparse";
    case Family::kCircuitGrid: return "circuit_grid";
    case Family::kGrid3d: return "grid3d";
  }
  return "unknown";
}

/// Dense L⁺ in long double: Gauss–Jordan inverse G of the grounded
/// Laplacian (node 0 grounded), padded with a zero row and column, then
/// centered, L⁺ = C G C with C = I − 11ᵀ/n. The extended precision keeps
/// the reference far below the 1e-12 tolerance even where
/// R(s,t) = L⁺ss + L⁺tt − 2 L⁺st cancels.
std::vector<long double> dense_pinv(const graph::Graph& g) {
  const Index n = g.num_nodes();
  const Index m = n - 1;
  const la::CsrMatrix a = grounded_laplacian(g);
  const auto at = [](std::vector<long double>& v, Index cols, Index i,
                     Index j) -> long double& {
    return v[static_cast<std::size_t>(i * cols + j)];
  };
  // [A | I] → [I | A⁻¹]; A is SPD, so no pivoting is needed.
  std::vector<long double> aug(static_cast<std::size_t>(m * 2 * m), 0.0L);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < m; ++j) at(aug, 2 * m, i, j) = a.at(i, j);
    at(aug, 2 * m, i, m + i) = 1.0L;
  }
  for (Index k = 0; k < m; ++k) {
    const long double pivot = at(aug, 2 * m, k, k);
    for (Index j = 0; j < 2 * m; ++j) at(aug, 2 * m, k, j) /= pivot;
    for (Index i = 0; i < m; ++i) {
      if (i == k) continue;
      const long double f = at(aug, 2 * m, i, k);
      if (f == 0.0L) continue;
      for (Index j = 0; j < 2 * m; ++j)
        at(aug, 2 * m, i, j) -= f * at(aug, 2 * m, k, j);
    }
  }
  std::vector<long double> pinv(static_cast<std::size_t>(n * n), 0.0L);
  for (Index i = 1; i < n; ++i)
    for (Index j = 1; j < n; ++j)
      at(pinv, n, i, j) = at(aug, 2 * m, i - 1, m + j - 1);
  // Center rows, then columns.
  const long double inv_n = 1.0L / static_cast<long double>(n);
  for (Index i = 0; i < n; ++i) {
    long double mean = 0.0L;
    for (Index j = 0; j < n; ++j) mean += at(pinv, n, i, j);
    for (Index j = 0; j < n; ++j) at(pinv, n, i, j) -= mean * inv_n;
  }
  for (Index j = 0; j < n; ++j) {
    long double mean = 0.0L;
    for (Index i = 0; i < n; ++i) mean += at(pinv, n, i, j);
    for (Index i = 0; i < n; ++i) at(pinv, n, i, j) -= mean * inv_n;
  }
  return pinv;
}

Real dense_resistance(const std::vector<long double>& pinv, Index n, Index s,
                      Index t) {
  const auto p = [&](Index i, Index j) {
    return pinv[static_cast<std::size_t>(i * n + j)];
  };
  return static_cast<Real>(p(s, s) + p(t, t) - 2.0L * p(s, t));
}

/// Node → grounded index of grounded_laplacian (node 0 is the ground).
Index grounded(Index v) { return v == 0 ? kInvalidIndex : v - 1; }

/// Every unordered pair, node 0 (the ground) included.
std::vector<std::pair<Index, Index>> all_pairs(Index n) {
  std::vector<std::pair<Index, Index>> pairs;
  for (Index s = 0; s < n; ++s)
    for (Index t = s + 1; t < n; ++t) pairs.emplace_back(s, t);
  return pairs;
}

class ResistanceKernel
    : public ::testing::TestWithParam<std::tuple<Family, OrderingMethod>> {};

TEST_P(ResistanceKernel, MatchesDensePseudoInverse) {
  const auto [family, ordering] = GetParam();
  const graph::Graph g = family_graph(family);
  const Index n = g.num_nodes();
  const std::vector<long double> pinv = dense_pinv(g);
  const la::CsrMatrix a = grounded_laplacian(g);
  for (const FactorKernel kernel :
       {FactorKernel::kScalar, FactorKernel::kSupernodal}) {
    const CholeskySolver solver(a, ordering, 0, kernel);
    for (const auto& [s, t] : all_pairs(n)) {
      const Real expected = dense_resistance(pinv, n, s, t);
      const Real st = solver.difference_energy(grounded(s), grounded(t));
      const Real ts = solver.difference_energy(grounded(t), grounded(s));
      EXPECT_LE(std::abs(st - expected), 1e-12 * expected)
          << "(" << s << ", " << t << ") kernel "
          << (kernel == FactorKernel::kScalar ? "scalar" : "supernodal");
      // b and −b run the same operations up to sign: bitwise symmetric.
      EXPECT_EQ(st, ts) << "(" << s << ", " << t << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndOrderings, ResistanceKernel,
    ::testing::Combine(
        ::testing::Values(Family::kPath, Family::kStar, Family::kBarbell,
                          Family::kUltraSparse, Family::kCircuitGrid,
                          Family::kGrid3d),
        ::testing::Values(OrderingMethod::kNatural, OrderingMethod::kRcm,
                          OrderingMethod::kMinimumDegree,
                          OrderingMethod::kNestedDissection,
                          OrderingMethod::kAuto)),
    [](const auto& info) {
      return family_name(std::get<0>(info.param)) + "_" +
             ordering_method_name(std::get<1>(info.param));
    });

TEST(ResistanceKernel, BitwiseRepeatableAndScratchSafeAcrossSolvers) {
  const graph::Graph small_graph = ultra_sparse_graph(6, 6, 4, 5);
  const graph::Graph big_graph = graph::make_grid3d(5, 5, 4);
  const CholeskySolver small(grounded_laplacian(small_graph));
  const CholeskySolver big(grounded_laplacian(big_graph));
  const auto small_pairs = all_pairs(small_graph.num_nodes());
  const auto big_pairs = all_pairs(big_graph.num_nodes());
  const auto energy = [](const CholeskySolver& solver, std::pair<Index, Index> p) {
    return solver.difference_energy(grounded(p.first), grounded(p.second));
  };

  // First calls on this thread for each solver alone.
  std::vector<Real> small_ref;
  for (const auto& p : small_pairs) small_ref.push_back(energy(small, p));
  std::vector<Real> big_ref;
  for (const auto& p : big_pairs) big_ref.push_back(energy(big, p));

  // Repeated and interleaved: the scratch sized for the big system is
  // reused by the small one and must come back clean every time.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < big_pairs.size(); ++i) {
      EXPECT_EQ(energy(big, big_pairs[i]), big_ref[i]) << "big pair " << i;
      const std::size_t k = i % small_pairs.size();
      EXPECT_EQ(energy(small, small_pairs[k]), small_ref[k]) << "small pair " << k;
    }
  }
}

TEST(ResistanceKernel, BitwiseAcrossConcurrentThreads) {
  const graph::Graph g = graph::make_circuit_grid(12, 12, 0, 0.5, 5.0, 7).graph;
  const CholeskySolver solver(grounded_laplacian(g));
  const auto pairs = all_pairs(g.num_nodes());
  std::vector<Real> serial;
  for (const auto& [s, t] : pairs)
    serial.push_back(solver.difference_energy(grounded(s), grounded(t)));

  constexpr int kThreads = 4;
  std::vector<std::vector<Real>> got(kThreads, std::vector<Real>(pairs.size()));
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      // Each thread walks the pairs from its own offset, so the threads
      // hit different paths at the same time.
      const std::size_t offset = pairs.size() * static_cast<std::size_t>(w) / kThreads;
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const std::size_t i = (k + offset) % pairs.size();
        got[static_cast<std::size_t>(w)][i] = solver.difference_energy(
            grounded(pairs[i].first), grounded(pairs[i].second));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(got[static_cast<std::size_t>(w)], serial) << "thread " << w;
  }
}

TEST(ResistanceKernel, RejectsEqualOrOutOfRangeEndpoints) {
  const CholeskySolver solver(grounded_laplacian(graph::make_path(5)));
  EXPECT_THROW((void)solver.difference_energy(1, 1), ContractViolation);
  EXPECT_THROW((void)solver.difference_energy(kInvalidIndex, kInvalidIndex),
               ContractViolation);
  EXPECT_THROW((void)solver.difference_energy(0, 4), ContractViolation);
  EXPECT_THROW((void)solver.difference_energy(-2, 0), ContractViolation);
}

/// The facade: the Cholesky path answers with the kernel, within 1e-12 of
/// the apply()-based x[s] − x[t], and the batch entry point is bitwise
/// the single one on both paths.
class ResistanceFacade : public ::testing::TestWithParam<LaplacianMethod> {};

TEST_P(ResistanceFacade, BatchIsBitwiseSingleAndMatchesApply) {
  const graph::Graph g = ultra_sparse_graph(9, 9, 8, 41);
  const Index n = g.num_nodes();
  LaplacianSolverOptions options;
  options.method = GetParam();
  const LaplacianPinvSolver pinv(g, options);
  std::vector<std::pair<Index, Index>> pairs;
  for (Index i = 0; i < 40; ++i) pairs.emplace_back(i + 1, (i * 29 + 17) % (n - 41) + 41);
  pairs.emplace_back(n - 1, 0);  // the ground node as an endpoint

  const std::vector<Real> batch = pinv.effective_resistances(pairs);
  ASSERT_EQ(batch.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    EXPECT_EQ(batch[i], pinv.effective_resistance(s, t)) << "pair " << i;
    la::Vector e(static_cast<std::size_t>(n), 0.0);
    e[static_cast<std::size_t>(s)] = 1.0;
    e[static_cast<std::size_t>(t)] = -1.0;
    const la::Vector x = pinv.apply(e);
    const Real probe =
        x[static_cast<std::size_t>(s)] - x[static_cast<std::size_t>(t)];
    if (GetParam() == LaplacianMethod::kPcgAmg) {
      EXPECT_EQ(batch[i], probe) << "pair " << i;  // PCG keeps the probe
    } else {
      EXPECT_LE(std::abs(batch[i] - probe), 1e-12 * probe) << "pair " << i;
    }
  }
  EXPECT_TRUE(pinv.effective_resistances({}).empty());
}

INSTANTIATE_TEST_SUITE_P(Methods, ResistanceFacade,
                         ::testing::Values(LaplacianMethod::kCholesky,
                                           LaplacianMethod::kPcgAmg),
                         [](const auto& info) {
                           return method_test_name(info.param);
                         });

}  // namespace
}  // namespace sgl::solver
