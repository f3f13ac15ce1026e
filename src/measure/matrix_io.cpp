#include "measure/matrix_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/contracts.hpp"

namespace sgl::measure {

la::DenseMatrix read_dense_matrix_market(const std::string& path) {
  std::ifstream in(path);
  SGL_EXPECTS(in.good(), "read_dense_matrix_market: cannot open '" + path + "'");

  std::string line;
  SGL_EXPECTS(static_cast<bool>(std::getline(in, line)),
              "read_dense_matrix_market: empty file");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  const auto lower = [](std::string s) {
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    return s;
  };
  SGL_EXPECTS(banner == "%%MatrixMarket" && lower(object) == "matrix" &&
                  lower(format) == "array",
              "read_dense_matrix_market: expected an array-format file");
  SGL_EXPECTS(lower(field) == "real" || lower(field) == "integer",
              "read_dense_matrix_market: unsupported field");
  SGL_EXPECTS(lower(symmetry) == "general",
              "read_dense_matrix_market: only general symmetry supported");

  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  long long rows = 0, cols = 0;
  size_line >> rows >> cols;
  SGL_EXPECTS(!size_line.fail() && rows > 0 && cols > 0,
              "read_dense_matrix_market: bad size line");
  constexpr long long kMaxIndex = std::numeric_limits<Index>::max();
  SGL_EXPECTS(rows <= kMaxIndex && cols <= kMaxIndex,
              "read_dense_matrix_market: dimension exceeds the index range (" +
                  std::to_string(kMaxIndex) + ")");
  // rows · cols ≤ 2^62 after the check above, so the product cannot wrap.
  const long long count = rows * cols;
  SGL_EXPECTS(count <= kMaxIndex,
              "read_dense_matrix_market: rows x cols exceeds the index "
              "range (" + std::to_string(kMaxIndex) + ")");

  const auto entry = [&](long long k) {
    return " (entry " + std::to_string(k + 1) + " of " +
           std::to_string(count) + ")";
  };
  // The entries land in a buffer that grows as they are read: a size line
  // can claim far more cells than the file holds, so at most 1 Mi are
  // reserved up front and a short file fails as truncated before the
  // claimed size is ever allocated.
  la::Storage data;
  data.reserve(static_cast<std::size_t>(std::min(count, 1LL << 20)));
  for (long long k = 0; k < count; ++k) {
    // End of input before a value is truncation; anything else that does
    // not parse (nan, inf, 1e400, text) is a bad value. Skipping
    // whitespace first keeps the two apart even for the file's last token.
    in >> std::ws;
    SGL_EXPECTS(!in.eof(), "read_dense_matrix_market: truncated data" + entry(k));
    Real v = 0.0;
    in >> v;
    SGL_EXPECTS(!in.fail() && std::isfinite(v),
                "read_dense_matrix_market: value is not a finite number" +
                    entry(k));
    data.push_back(v);
  }
  return la::DenseMatrix::from_storage(static_cast<Index>(rows),
                                       static_cast<Index>(cols),
                                       std::move(data));
}

void write_dense_matrix_market(const la::DenseMatrix& m,
                               const std::string& path) {
  std::ofstream out(path);
  SGL_EXPECTS(out.good(),
              "write_dense_matrix_market: cannot open '" + path + "'");
  out << "%%MatrixMarket matrix array real general\n";
  out << "% measurement matrix exported by sgl\n";
  out << m.rows() << ' ' << m.cols() << '\n';
  out.precision(17);
  for (Index j = 0; j < m.cols(); ++j)
    for (Index i = 0; i < m.rows(); ++i) out << m(i, j) << '\n';
  SGL_ENSURES(out.good(), "write_dense_matrix_market: write failed");
}

}  // namespace sgl::measure
