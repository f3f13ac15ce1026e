// Sparse matrix storage: triplet (COO) assembly and CSR kernels.
//
// CsrMatrix is the workhorse for Laplacians, preconditioners and Galerkin
// coarse operators. Duplicate triplets are summed during assembly, matching
// finite-element / circuit-stamping conventions.
#pragma once

#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "la/vector_ops.hpp"

namespace sgl::graph {
class Graph;
}  // namespace sgl::graph

namespace sgl::la {

class CsrMatrix;

namespace detail {

/// Row count below which the SpMV kernels stay serial (pool dispatch costs
/// more than the loop). A scheduling threshold only for the gather kernel;
/// for the transposed scatter it also selects between the serial per-entry
/// sum and the fixed-chunk combine.
inline constexpr Index kSpmvSerialRows = 4096;

/// Fixed chunk count for the transposed-scatter reduction; depends on
/// nothing but this constant so results never vary with the thread count.
inline constexpr Index kSpmvTransposeChunks = 32;

/// Y = Aᵀ X for a block of b columns packed ROW-major (one contiguous
/// b-strip per row: x is rows×b, y is cols×b and is overwritten). Each
/// column runs the EXACT CsrMatrix::multiply_transposed algorithm —
/// per-row zero skip, ascending-row scatter, and above kSpmvSerialRows
/// the fixed-chunk ordered combine — so column c of the result is
/// bitwise equal to multiply_transposed on that column alone, for every
/// thread count and block width. Lives here (not in multi_vector) so the
/// scalar and block scatters evolve in lockstep; the AMG block V-cycle's
/// restriction relies on that for its bitwise contract.
void spmm_transposed_row_major(const CsrMatrix& a, const Real* x, Real* y,
                               Index b, Index num_threads);

}  // namespace detail

/// One (row, col, value) entry of a matrix under assembly.
struct Triplet {
  Index row = 0;
  Index col = 0;
  Real value = 0.0;
};

/// Compressed-sparse-row matrix with sorted column indices per row.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Assembles from triplets; duplicates are summed, rows end up with
  /// strictly increasing column indices. Entries that sum to exactly zero
  /// are kept (structural nonzeros), which factorization codes rely on.
  static CsrMatrix from_triplets(Index rows, Index cols,
                                 const std::vector<Triplet>& triplets);

  /// Identity matrix of order n.
  static CsrMatrix identity(Index n);

  [[nodiscard]] Index rows() const noexcept { return rows_; }
  [[nodiscard]] Index cols() const noexcept { return cols_; }
  [[nodiscard]] Index nnz() const noexcept { return to_index(values_.size()); }

  [[nodiscard]] const std::vector<Index>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<Index>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<Real>& values() const noexcept {
    return values_;
  }
  [[nodiscard]] std::vector<Real>& values() noexcept { return values_; }

  /// Value at (i, j); 0 if the entry is not stored. O(log nnz(i)).
  [[nodiscard]] Real at(Index i, Index j) const;

  /// y = A x. `num_threads` follows the library convention (0 = default,
  /// 1 = serial); rows are chunked across workers and every y[i] is a
  /// fixed-order sum over the row's nonzeros, so the result is
  /// bit-identical for every thread count. Small matrices stay serial.
  void multiply(const Vector& x, Vector& y, Index num_threads = 1) const;
  [[nodiscard]] Vector multiply(const Vector& x, Index num_threads = 1) const {
    Vector y(static_cast<std::size_t>(rows_));
    multiply(x, y, num_threads);
    return y;
  }

  /// y = Aᵀ x. Row-chunked scatter with chunk partials combined in fixed
  /// chunk order: the chunk boundaries depend only on the matrix size,
  /// never on `num_threads`, so the result is bit-identical for every
  /// thread count (though the large-matrix chunked sum may differ from the
  /// small-matrix serial sum by rounding, the crossover depends only on
  /// the matrix shape).
  [[nodiscard]] Vector multiply_transposed(const Vector& x,
                                           Index num_threads = 1) const;

  /// xᵀ A x (A symmetric or not — plain quadratic form).
  [[nodiscard]] Real quadratic_form(const Vector& x) const;

  /// Diagonal entries as a vector (0 where absent).
  [[nodiscard]] Vector diagonal() const;

  /// Aᵀ in CSR form.
  [[nodiscard]] CsrMatrix transposed() const;

  /// Scales all stored values by alpha.
  void scale(Real alpha) {
    for (Real& v : values_) v *= alpha;
  }

  /// True if the sparsity pattern and values are symmetric to tolerance.
  [[nodiscard]] bool is_symmetric(Real tol = 1e-12) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_;  // size rows_ + 1
  std::vector<Index> col_idx_;  // size nnz
  std::vector<Real> values_;    // size nnz

  /// Adopts finished CSR arrays (rows sorted and deduplicated by the
  /// caller). Private: only assemblers that build the exact from_triplets
  /// result row by row (Graph::laplacian) may skip the triplet pass.
  CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
            std::vector<Index> col_idx, std::vector<Real> values)
      : rows_(rows), cols_(cols), row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)), values_(std::move(values)) {}

  friend class graph::Graph;
  friend CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b);
  friend CsrMatrix add(const CsrMatrix& a, const CsrMatrix& b, Real alpha,
                       Real beta);
};

/// C = A B (row-wise gather SpGEMM with a dense accumulator).
[[nodiscard]] CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b);

/// C = alpha A + beta B (same shape).
[[nodiscard]] CsrMatrix add(const CsrMatrix& a, const CsrMatrix& b,
                            Real alpha = 1.0, Real beta = 1.0);

}  // namespace sgl::la
