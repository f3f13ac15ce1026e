#include "graph/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

namespace sgl::graph {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

la::CsrMatrix read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  SGL_EXPECTS(in.good(), "read_matrix_market: cannot open '" + path + "'");

  std::string line;
  SGL_EXPECTS(static_cast<bool>(std::getline(in, line)),
              "read_matrix_market: empty file");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  SGL_EXPECTS(banner == "%%MatrixMarket", "read_matrix_market: bad banner");
  SGL_EXPECTS(lower(object) == "matrix" && lower(format) == "coordinate",
              "read_matrix_market: only coordinate matrices are supported");
  const std::string f = lower(field);
  SGL_EXPECTS(f == "real" || f == "integer" || f == "pattern",
              "read_matrix_market: unsupported field type '" + field + "'");
  const std::string sym = lower(symmetry);
  SGL_EXPECTS(sym == "general" || sym == "symmetric",
              "read_matrix_market: unsupported symmetry '" + symmetry + "'");
  const bool pattern = (f == "pattern");
  const bool symmetric = (sym == "symmetric");

  // Skip comments / blank lines up to the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  long long rows = 0, cols = 0, nnz = 0;
  size_line >> rows >> cols >> nnz;
  SGL_EXPECTS(!size_line.fail() && rows > 0 && cols > 0 && nnz >= 0,
              "read_matrix_market: bad size line");
  constexpr long long kMaxIndex = std::numeric_limits<Index>::max();
  SGL_EXPECTS(rows <= kMaxIndex && cols <= kMaxIndex,
              "read_matrix_market: dimension exceeds the index range (" +
                  std::to_string(kMaxIndex) + ")");
  // rows · cols ≤ 2^62 after the check above, so the product cannot wrap.
  SGL_EXPECTS(nnz <= rows * cols,
              "read_matrix_market: more entries than the matrix has cells");
  // CSR offsets are Index too; a symmetric off-diagonal stores two entries.
  SGL_EXPECTS(nnz <= kMaxIndex / (symmetric ? 2 : 1),
              "read_matrix_market: entry count exceeds the index range");

  const auto entry = [&](long long k) {
    return " (entry " + std::to_string(k + 1) + " of " + std::to_string(nnz) +
           ")";
  };
  // End of input before a field is a truncated list; anything else that
  // does not parse is a bad field. Skipping whitespace first keeps the two
  // apart even when a bad token is the last thing in the file.
  const auto expect_field = [&](long long k) {
    in >> std::ws;
    SGL_EXPECTS(!in.eof(),
                "read_matrix_market: truncated entry list" + entry(k));
  };

  std::vector<la::Triplet> triplets;
  // A size line can claim far more entries than the file holds; reserve at
  // most 1 Mi up front and let a longer list grow as it is read.
  triplets.reserve(static_cast<std::size_t>(std::min(nnz, 1LL << 20)) *
                   (symmetric ? 2 : 1));
  for (long long k = 0; k < nnz; ++k) {
    long long i = 0, j = 0;
    Real v = 1.0;
    expect_field(k);
    in >> i;
    expect_field(k);
    in >> j;
    SGL_EXPECTS(!in.fail(),
                "read_matrix_market: index is not an integer" + entry(k));
    SGL_EXPECTS(i >= 1 && i <= rows && j >= 1 && j <= cols,
                "read_matrix_market: entry out of range" + entry(k));
    if (!pattern) {
      expect_field(k);
      in >> v;
      SGL_EXPECTS(!in.fail() && std::isfinite(v),
                  "read_matrix_market: value is not a finite number" +
                      entry(k));
    }
    triplets.push_back({static_cast<Index>(i - 1), static_cast<Index>(j - 1), v});
    if (symmetric && i != j)
      triplets.push_back({static_cast<Index>(j - 1), static_cast<Index>(i - 1), v});
  }
  return la::CsrMatrix::from_triplets(static_cast<Index>(rows),
                                      static_cast<Index>(cols), triplets);
}

Graph graph_from_matrix(const la::CsrMatrix& matrix,
                        MatrixInterpretation interpretation) {
  SGL_EXPECTS(matrix.rows() == matrix.cols(),
              "graph_from_matrix: matrix must be square");
  const Index n = matrix.rows();
  // Deduplicate (i, j) / (j, i): keep the canonical i < j pair, averaging
  // over however many directed entries the file stored (1 for one-triangle
  // general files, 2 for expanded symmetric storage).
  std::map<std::pair<Index, Index>, std::pair<Real, int>> weights;
  const auto& rp = matrix.row_ptr();
  const auto& ci = matrix.col_idx();
  const auto& vv = matrix.values();
  for (Index i = 0; i < n; ++i) {
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const Index j = ci[static_cast<std::size_t>(k)];
      if (i == j) continue;
      const Real a = vv[static_cast<std::size_t>(k)];
      Real w = 0.0;
      if (interpretation == MatrixInterpretation::kAdjacency) {
        w = std::abs(a);
      } else {
        if (a >= 0.0) continue;  // Laplacian off-diagonals are negative
        w = -a;
      }
      if (w <= 0.0) continue;
      const auto key = std::minmax(i, j);
      auto& slot = weights[{key.first, key.second}];
      slot.first += w;
      slot.second += 1;
    }
  }
  Graph g(n);
  for (const auto& [key, acc] : weights) {
    g.add_edge(key.first, key.second, acc.first / acc.second);
  }
  return g;
}

Graph read_graph_matrix_market(const std::string& path,
                               MatrixInterpretation interpretation) {
  return graph_from_matrix(read_matrix_market(path), interpretation);
}

void write_laplacian_matrix_market(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  SGL_EXPECTS(out.good(),
              "write_laplacian_matrix_market: cannot open '" + path + "'");
  const la::CsrMatrix lap = g.laplacian();
  const auto& rp = lap.row_ptr();
  const auto& ci = lap.col_idx();
  const auto& vv = lap.values();
  long nnz_lower = 0;
  for (Index i = 0; i < lap.rows(); ++i)
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      if (ci[static_cast<std::size_t>(k)] <= i) ++nnz_lower;

  out << "%%MatrixMarket matrix coordinate real symmetric\n";
  out << "% graph Laplacian exported by sgl\n";
  out << lap.rows() << ' ' << lap.cols() << ' ' << nnz_lower << '\n';
  out.precision(17);
  for (Index i = 0; i < lap.rows(); ++i)
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      if (ci[static_cast<std::size_t>(k)] <= i)
        out << (i + 1) << ' ' << (ci[static_cast<std::size_t>(k)] + 1) << ' '
            << vv[static_cast<std::size_t>(k)] << '\n';
  SGL_ENSURES(out.good(), "write_laplacian_matrix_market: write failed");
}

}  // namespace sgl::graph
