// LinearOperator: the abstract "apply a matrix" interface of the block
// linear-algebra backbone (DESIGN.md §1).
//
// Consumers that only need matrix–vector / matrix–block products (Lanczos,
// power iterations, residual checks) program against this interface; the
// concrete operator decides how the apply is computed — a CSR SpMV/SpMM
// here, a grounded Laplacian pseudo-inverse solve in
// solver/operators.hpp, or any user-supplied subclass. apply_block is the
// hot entry point: backends batch the b right-hand sides through shared
// state (one streaming pass over the CSR nonzeros, one shared
// factorization) instead of b independent calls.
#pragma once

#include "la/multi_vector.hpp"
#include "la/sparse.hpp"
#include "la/vector_ops.hpp"

namespace sgl::la {

class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  [[nodiscard]] virtual Index rows() const noexcept = 0;
  [[nodiscard]] virtual Index cols() const noexcept = 0;

  /// y = A x. `y` is resized/overwritten.
  virtual void apply(const Vector& x, Vector& y) const = 0;

  /// Y = A X, column by column unless the backend has a batched kernel.
  /// Shapes must already match (x: cols()×b, y: rows()×b).
  virtual void apply_block(ConstBlockView x, BlockView y) const;
};

/// CSR-matrix-backed operator: parallel SpMV / SpMM with a fixed thread
/// knob (0 = library default, 1 = serial; results are identical).
class CsrOperator final : public LinearOperator {
 public:
  /// Keeps a reference to `a`; the matrix must outlive the operator.
  explicit CsrOperator(const CsrMatrix& a, Index num_threads = 0)
      : a_(a), num_threads_(num_threads) {}

  [[nodiscard]] Index rows() const noexcept override { return a_.rows(); }
  [[nodiscard]] Index cols() const noexcept override { return a_.cols(); }

  void apply(const Vector& x, Vector& y) const override {
    a_.multiply(x, y, num_threads_);
  }

  void apply_block(ConstBlockView x, BlockView y) const override {
    spmm(a_, x, y, num_threads_);
  }

 private:
  const CsrMatrix& a_;
  Index num_threads_;
};

}  // namespace sgl::la
