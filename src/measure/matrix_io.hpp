// Dense measurement-matrix I/O (MatrixMarket array format).
//
// Lets the CLI and user pipelines exchange X/Y measurement matrices with
// Matlab/NumPy tooling: `mmwrite(X)` there, `read_dense_matrix_market`
// here, and vice versa.
#pragma once

#include <string>

#include "la/dense_matrix.hpp"

namespace sgl::measure {

/// Reads a "%%MatrixMarket matrix array real general" file (column-major
/// entry order, as the format prescribes). Throws ContractViolation
/// (kInvalidArgument) for a size line outside the Index range (rows,
/// cols or rows·cols), an entry that is not a finite number ("value is
/// not a finite number (entry k of N)") and a file that ends early
/// ("truncated data (entry k of N)"); nothing is allocated from the size
/// line before the entries are read.
[[nodiscard]] la::DenseMatrix read_dense_matrix_market(const std::string& path);

/// Writes in the same format with full double precision.
void write_dense_matrix_market(const la::DenseMatrix& m,
                               const std::string& path);

}  // namespace sgl::measure
