// Unit tests for dense MatrixMarket array I/O.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "common/rng.hpp"
#include "measure/matrix_io.hpp"

namespace sgl::measure {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(MatrixIo, RoundTripPreservesValues) {
  Rng rng(1);
  la::DenseMatrix m(7, 4);
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < 7; ++i) m(i, j) = rng.normal();

  const std::string path = temp_path("dense_roundtrip.mtx");
  write_dense_matrix_market(m, path);
  const la::DenseMatrix loaded = read_dense_matrix_market(path);
  ASSERT_EQ(loaded.rows(), 7);
  ASSERT_EQ(loaded.cols(), 4);
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(loaded(i, j), m(i, j));
}

TEST(MatrixIo, ColumnMajorOrderOnDisk) {
  la::DenseMatrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 0) = 2.0;
  m(0, 1) = 3.0;
  m(1, 1) = 4.0;
  const std::string path = temp_path("dense_order.mtx");
  write_dense_matrix_market(m, path);

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // banner
  std::getline(in, line);  // comment
  std::getline(in, line);  // size
  la::Vector values;
  Real v;
  while (in >> v) values.push_back(v);
  EXPECT_EQ(values, (la::Vector{1.0, 2.0, 3.0, 4.0}));
}

TEST(MatrixIo, RejectsCoordinateFormat) {
  const std::string path = temp_path("coord.mtx");
  std::ofstream out(path);
  out << "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.0\n";
  out.close();
  EXPECT_THROW((void)read_dense_matrix_market(path), ContractViolation);
}

TEST(MatrixIo, RejectsTruncatedData) {
  const std::string path = temp_path("short.mtx");
  std::ofstream out(path);
  out << "%%MatrixMarket matrix array real general\n3 2\n1.0\n2.0\n";
  out.close();
  EXPECT_THROW((void)read_dense_matrix_market(path), ContractViolation);
}

/// Writes `body` after an array-format banner and returns the message of
/// the ContractViolation the reader throws (empty if it does not throw).
std::string read_error(const std::string& name, const std::string& body) {
  const std::string path = temp_path(name);
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix array real general\n" << body;
  }
  try {
    (void)read_dense_matrix_market(path);
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    return e.what();
  }
  return {};
}

TEST(MatrixIo, TruncatedDataNamesTheMissingEntry) {
  EXPECT_NE(read_error("short_entry.mtx", "3 2\n1.0\n2.0\n")
                .find("truncated data (entry 3 of 6)"),
            std::string::npos);
  // Trailing whitespace after the last value is still truncation.
  EXPECT_NE(read_error("short_ws.mtx", "2 2\n1.0\n2.0\n3.0\n  \n")
                .find("truncated data (entry 4 of 4)"),
            std::string::npos);
}

TEST(MatrixIo, NonFiniteValuesAreRejectedPerEntry) {
  for (const std::string token : {"nan", "NaN", "inf", "-inf", "1e400"}) {
    SCOPED_TRACE(token);
    EXPECT_NE(read_error("nonfinite_mid.mtx", "3 1\n1.0\n" + token + "\n3.0\n")
                  .find("value is not a finite number (entry 2 of 3)"),
              std::string::npos);
    // As the file's last bytes, with no newline after it.
    EXPECT_NE(read_error("nonfinite_end.mtx", "2 1\n1.0\n" + token)
                  .find("value is not a finite number (entry 2 of 2)"),
              std::string::npos);
  }
  EXPECT_NE(read_error("text.mtx", "2 1\n1.0\nvolts\n")
                .find("value is not a finite number (entry 2 of 2)"),
            std::string::npos);
}

TEST(MatrixIo, OversizeDimensionsAreRejectedAtSizeLine) {
  EXPECT_NE(read_error("huge_dims.mtx", "3000000000 3000000000\n1.0\n")
                .find("dimension exceeds the index range"),
            std::string::npos);
  EXPECT_NE(read_error("huge_cols.mtx", "2 3000000000\n1.0\n")
                .find("dimension exceeds the index range"),
            std::string::npos);
  // Each dimension fits an Index, their product does not.
  EXPECT_NE(read_error("huge_cells.mtx", "65536 65536\n1.0\n")
                .find("rows x cols exceeds the index range"),
            std::string::npos);
  EXPECT_NE(read_error("bad_size.mtx", "3 x\n1.0\n").find("bad size line"),
            std::string::npos);
}

TEST(MatrixIo, ClaimedSizeIsNotAllocatedBeforeTheEntriesAreRead) {
  // 4·10⁸ cells (3.2 GB) claimed, two present: the reader fails as
  // truncated after reading what the file holds.
  EXPECT_NE(read_error("claims_big.mtx", "20000 20000\n1.0\n2.0\n")
                .find("truncated data (entry 3 of 400000000)"),
            std::string::npos);
}

TEST(MatrixIo, MissingFileThrows) {
  EXPECT_THROW((void)read_dense_matrix_market(temp_path("nope.mtx")),
               ContractViolation);
}

}  // namespace
}  // namespace sgl::measure
