// Unit tests for exact kNN search.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "knn/brute_force.hpp"

namespace sgl::knn {
namespace {

la::DenseMatrix line_points(Index n) {
  // Points 0, 1, 2, … on a 1-D line (one column).
  la::DenseMatrix x(n, 1);
  for (Index i = 0; i < n; ++i) x(i, 0) = static_cast<Real>(i);
  return x;
}

TEST(BruteForce, LinePointsNearestAreAdjacent) {
  const KnnResult r = brute_force_knn(line_points(5), 2);
  EXPECT_EQ(r.num_points(), 5);
  // Point 2's two nearest are 1 and 3 (distance 1 each).
  EXPECT_DOUBLE_EQ(r.distance_squared[2 * 2 + 0], 1.0);
  EXPECT_DOUBLE_EQ(r.distance_squared[2 * 2 + 1], 1.0);
  const Index n0 = r.neighbor[2 * 2 + 0];
  const Index n1 = r.neighbor[2 * 2 + 1];
  EXPECT_TRUE((n0 == 1 && n1 == 3) || (n0 == 3 && n1 == 1));
}

TEST(BruteForce, EndpointNeighborsAreOrdered) {
  const KnnResult r = brute_force_knn(line_points(6), 3);
  // Point 0: neighbors 1, 2, 3 at distances 1, 4, 9.
  EXPECT_EQ(r.neighbor[0], 1);
  EXPECT_EQ(r.neighbor[1], 2);
  EXPECT_EQ(r.neighbor[2], 3);
  EXPECT_DOUBLE_EQ(r.distance_squared[2], 9.0);
}

TEST(BruteForce, ExcludesSelf) {
  const KnnResult r = brute_force_knn(line_points(4), 3);
  for (Index i = 0; i < 4; ++i)
    for (Index j = 0; j < 3; ++j)
      EXPECT_NE(r.neighbor[static_cast<std::size_t>(i) * 3 + j], i);
}

TEST(BruteForce, DistancesNonDecreasingPerPoint) {
  Rng rng(4);
  la::DenseMatrix x(50, 8);
  for (Index j = 0; j < 8; ++j)
    for (Index i = 0; i < 50; ++i) x(i, j) = rng.normal();
  const KnnResult r = brute_force_knn(x, 10);
  for (Index i = 0; i < 50; ++i)
    for (Index j = 1; j < 10; ++j)
      EXPECT_LE(r.distance_squared[static_cast<std::size_t>(i) * 10 + j - 1],
                r.distance_squared[static_cast<std::size_t>(i) * 10 + j]);
}

TEST(BruteForce, DuplicatePointsHaveZeroDistance) {
  la::DenseMatrix x(3, 2);
  x(0, 0) = 1.0; x(0, 1) = 2.0;
  x(1, 0) = 1.0; x(1, 1) = 2.0;  // duplicate of row 0
  x(2, 0) = 9.0; x(2, 1) = 9.0;
  const KnnResult r = brute_force_knn(x, 1);
  EXPECT_EQ(r.neighbor[0], 1);
  EXPECT_DOUBLE_EQ(r.distance_squared[0], 0.0);
}

TEST(BruteForce, ContractsOnBadK) {
  const la::DenseMatrix x = line_points(4);
  EXPECT_THROW(brute_force_knn(x, 0), ContractViolation);
  EXPECT_THROW(brute_force_knn(x, 4), ContractViolation);
}

TEST(BruteForce, ThreadedResultMatchesSerialBitForBit) {
  Rng rng(11);
  la::DenseMatrix x(257, 6);
  for (Index j = 0; j < 6; ++j)
    for (Index i = 0; i < 257; ++i) x(i, j) = rng.normal();
  const KnnResult serial = brute_force_knn(x, 7, 1);
  for (const Index threads : {2, 4, 8}) {
    const KnnResult parallel = brute_force_knn(x, 7, threads);
    EXPECT_EQ(parallel.neighbor, serial.neighbor) << "threads=" << threads;
    EXPECT_EQ(parallel.distance_squared, serial.distance_squared)
        << "threads=" << threads;
  }
}

TEST(BruteForce, RowMajorConversionMatchesRows) {
  la::DenseMatrix x(3, 2);
  x(1, 0) = 5.0;
  x(1, 1) = -2.0;
  const std::vector<Real> rm = to_row_major(x);
  EXPECT_DOUBLE_EQ(rm[2], 5.0);
  EXPECT_DOUBLE_EQ(rm[3], -2.0);
  EXPECT_DOUBLE_EQ(point_distance_squared(rm, 2, 0, 1), 25.0 + 4.0);
}

/// Dims 1–33 reach every tail length of the 8-lane kernel (0–7 leftover
/// dims after 0–4 full blocks); 100 is the benchmark's measurement count.
std::vector<Index> kernel_dims() {
  std::vector<Index> dims;
  for (Index d = 1; d <= 33; ++d) dims.push_back(d);
  dims.push_back(100);
  return dims;
}

/// Row-major buffer of `n` standard-normal points of length `dim`.
std::vector<Real> normal_rows(Index n, Index dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Real> data(static_cast<std::size_t>(n) * dim);
  for (Real& v : data) v = rng.normal();
  return data;
}

TEST(PointDistance, AgreesWithLongDoubleReference) {
  // The lane-split sum reorders additions relative to a sequential loop,
  // so it agrees with an extended-precision reference only to rounding:
  // within dim · 4 ulp, relative.
  constexpr Index kPoints = 12;
  for (const Index dim : kernel_dims()) {
    const std::vector<Real> data = normal_rows(kPoints, dim, 100 + dim);
    for (Index a = 0; a < kPoints; ++a) {
      for (Index b = 0; b < kPoints; ++b) {
        if (a == b) continue;
        const Real* pa = data.data() + static_cast<std::size_t>(a) * dim;
        const Real* pb = data.data() + static_cast<std::size_t>(b) * dim;
        long double ref = 0.0L;
        for (Index d = 0; d < dim; ++d) {
          const long double diff = static_cast<long double>(pa[d]) -
                                   static_cast<long double>(pb[d]);
          ref += diff * diff;
        }
        const Real got = point_distance_squared(data, dim, a, b);
        const Real tol = static_cast<Real>(dim) * 4.0 *
                         std::numeric_limits<Real>::epsilon() *
                         static_cast<Real>(ref);
        EXPECT_LE(std::abs(static_cast<long double>(got) - ref), tol)
            << "dim=" << dim << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(PointDistance, SymmetricBitForBitAndZeroOnSelf) {
  constexpr Index kPoints = 8;
  for (const Index dim : kernel_dims()) {
    const std::vector<Real> data = normal_rows(kPoints, dim, 200 + dim);
    for (Index a = 0; a < kPoints; ++a) {
      EXPECT_EQ(point_distance_squared(data, dim, a, a), 0.0) << "dim=" << dim;
      for (Index b = 0; b < kPoints; ++b) {
        // EXPECT_EQ on doubles is exact equality: same bits (no nans here).
        EXPECT_EQ(point_distance_squared(data, dim, a, b),
                  point_distance_squared(data, dim, b, a))
            << "dim=" << dim << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(PointDistance, ExactOnSmallIntegerPoints) {
  // Small-integer coordinates make every difference, square and partial
  // sum an exactly representable integer, so any summation order must
  // return the exact squared distance.
  Rng rng(301);
  for (const Index dim : kernel_dims()) {
    std::vector<Real> data(2 * static_cast<std::size_t>(dim));
    std::int64_t exact = 0;
    for (Index d = 0; d < dim; ++d) {
      const auto a = static_cast<std::int64_t>(rng.uniform_int(201)) - 100;
      const auto b = static_cast<std::int64_t>(rng.uniform_int(201)) - 100;
      data[static_cast<std::size_t>(d)] = static_cast<Real>(a);
      data[static_cast<std::size_t>(dim + d)] = static_cast<Real>(b);
      exact += (a - b) * (a - b);
    }
    EXPECT_EQ(point_distance_squared(data, dim, 0, 1), static_cast<Real>(exact))
        << "dim=" << dim;
  }
}

}  // namespace
}  // namespace sgl::knn
