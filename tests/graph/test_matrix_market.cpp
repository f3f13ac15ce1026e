// Unit tests for MatrixMarket I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"

namespace sgl::graph {
namespace {

class MatrixMarketTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }

  // Writes `content`, reads it back, and checks the read fails at the
  // boundary as a typed invalid-argument error whose message names the
  // problem (`expected` is a substring of what()).
  void expect_rejected(const std::string& name, const std::string& content,
                       const std::string& expected) {
    const std::string path = temp_path(name);
    write_file(path, content);
    try {
      (void)read_matrix_market(path);
      ADD_FAILURE() << name << ": read succeeded";
    } catch (const ContractViolation& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << name;
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << name << ": " << e.what();
    }
  }
};

TEST_F(MatrixMarketTest, ReadsGeneralRealCoordinate) {
  const std::string path = temp_path("general.mtx");
  write_file(path,
             "%%MatrixMarket matrix coordinate real general\n"
             "% comment\n"
             "3 3 3\n"
             "1 1 2.0\n"
             "2 3 -1.5\n"
             "3 1 4.0\n");
  const la::CsrMatrix m = read_matrix_market(path);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), -1.5);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
}

TEST_F(MatrixMarketTest, SymmetricStorageIsExpanded) {
  const std::string path = temp_path("sym.mtx");
  write_file(path,
             "%%MatrixMarket matrix coordinate real symmetric\n"
             "2 2 2\n"
             "1 1 1.0\n"
             "2 1 -3.0\n");
  const la::CsrMatrix m = read_matrix_market(path);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -3.0);
}

TEST_F(MatrixMarketTest, PatternFileGetsUnitWeights) {
  const std::string path = temp_path("pattern.mtx");
  write_file(path,
             "%%MatrixMarket matrix coordinate pattern symmetric\n"
             "3 3 2\n"
             "2 1\n"
             "3 2\n");
  const Graph g = read_graph_matrix_market(
      path, MatrixInterpretation::kAdjacency);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.edge(0).weight, 1.0);
}

TEST_F(MatrixMarketTest, LaplacianInterpretationUsesNegativeOffdiagonals) {
  const std::string path = temp_path("lap.mtx");
  write_file(path,
             "%%MatrixMarket matrix coordinate real symmetric\n"
             "3 3 5\n"
             "1 1 3.0\n"
             "2 2 1.0\n"
             "3 3 2.0\n"
             "2 1 -1.0\n"
             "3 1 -2.0\n");
  const Graph g = read_graph_matrix_market(path);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.laplacian().at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(g.laplacian().at(0, 2), -2.0);
}

TEST_F(MatrixMarketTest, LaplacianRoundTrip) {
  const Graph original = make_grid2d(5, 4).graph;
  const std::string path = temp_path("roundtrip.mtx");
  write_laplacian_matrix_market(original, path);
  const Graph loaded = read_graph_matrix_market(path);
  ASSERT_EQ(loaded.num_nodes(), original.num_nodes());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  const la::CsrMatrix la = original.laplacian();
  const la::CsrMatrix lb = loaded.laplacian();
  for (Index i = 0; i < la.rows(); ++i)
    for (Index j = 0; j < la.cols(); ++j)
      EXPECT_NEAR(la.at(i, j), lb.at(i, j), 1e-12);
}

TEST_F(MatrixMarketTest, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market(temp_path("nonexistent.mtx")),
               ContractViolation);
}

TEST_F(MatrixMarketTest, BadBannerThrows) {
  const std::string path = temp_path("bad.mtx");
  write_file(path, "%%NotMatrixMarket nope\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(path), ContractViolation);
}

TEST_F(MatrixMarketTest, ArrayFormatRejected) {
  const std::string path = temp_path("array.mtx");
  write_file(path, "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  EXPECT_THROW(read_matrix_market(path), ContractViolation);
}

TEST_F(MatrixMarketTest, EntryOutOfRangeThrows) {
  const std::string path = temp_path("oob.mtx");
  write_file(path,
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(path), ContractViolation);
}

TEST_F(MatrixMarketTest, FewerEntriesThanSizeLineIsTruncation) {
  expect_rejected("short.mtx",
                  "%%MatrixMarket matrix coordinate real general\n"
                  "2 2 3\n"
                  "1 1 1.0\n"
                  "2 2 1.0\n",
                  "truncated entry list (entry 3 of 3)");
  // Cut mid-entry: the index pair is there, the value is not.
  expect_rejected("short_value.mtx",
                  "%%MatrixMarket matrix coordinate real general\n"
                  "2 2 2\n"
                  "1 1 1.0\n"
                  "2 2\n",
                  "truncated entry list (entry 2 of 2)");
}

TEST_F(MatrixMarketTest, NonFiniteValuesAreRejectedPerEntry) {
  for (const std::string value : {"nan", "inf", "-inf", "1e400"}) {
    expect_rejected("nonfinite.mtx",
                    "%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n"
                    "1 1 1.0\n"
                    "2 1 " + value + "\n",
                    "value is not a finite number (entry 2 of 2)");
    // The same token as the last bytes of the file (no newline) is still
    // a bad value, not a truncation.
    expect_rejected("nonfinite_eof.mtx",
                    "%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n"
                    "2 1 " + value,
                    "value is not a finite number (entry 1 of 1)");
  }
}

TEST_F(MatrixMarketTest, HugeEntryCountIsRejectedAtSizeLine) {
  // Used to reach vector::reserve and escape as std::length_error.
  expect_rejected("huge_nnz.mtx",
                  "%%MatrixMarket matrix coordinate real symmetric\n"
                  "3 3 4000000000000000000\n"
                  "1 1 1.0\n",
                  "more entries than the matrix has cells");
  // Within rows · cols but past what Index-based CSR offsets can hold.
  expect_rejected("index_nnz.mtx",
                  "%%MatrixMarket matrix coordinate real general\n"
                  "100000 100000 3000000000\n",
                  "entry count exceeds the index range");
}

TEST_F(MatrixMarketTest, OversizeDimensionsAreRejectedAtSizeLine) {
  // Used to narrow silently into the 32-bit Index.
  expect_rejected("huge_rows.mtx",
                  "%%MatrixMarket matrix coordinate real general\n"
                  "4294967297 2 1\n"
                  "1 1 1.0\n",
                  "dimension exceeds the index range");
  expect_rejected("huge_cols.mtx",
                  "%%MatrixMarket matrix coordinate real general\n"
                  "2 2147483648 1\n"
                  "1 1 1.0\n",
                  "dimension exceeds the index range");
}

TEST_F(MatrixMarketTest, NonIntegerIndexIsRejected) {
  expect_rejected("bad_index.mtx",
                  "%%MatrixMarket matrix coordinate real general\n"
                  "2 2 1\n"
                  "1 x 1.0\n",
                  "index is not an integer (entry 1 of 1)");
}

TEST_F(MatrixMarketTest, GraphFromMatrixRequiresSquare) {
  const la::CsrMatrix rect = la::CsrMatrix::from_triplets(2, 3, {{0, 0, 1.0}});
  EXPECT_THROW(graph_from_matrix(rect, MatrixInterpretation::kAdjacency),
               ContractViolation);
}

}  // namespace
}  // namespace sgl::graph
