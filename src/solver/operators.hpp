// Solver-backed LinearOperator adapter (DESIGN.md §1).
//
// This bridges the solver layer into the block linear-algebra backbone:
// the Laplacian pseudo-inverse becomes an operator the block Lanczos
// eigensolver can apply batched.
#pragma once

#include "la/linear_operator.hpp"
#include "solver/laplacian_solver.hpp"

namespace sgl::solver {

/// L⁺ as a LinearOperator. apply_block batches the right-hand sides
/// through the solver's shared factorization (multi-RHS solve) — on the
/// Cholesky path, one pair of block triangular sweeps per batch
/// (DESIGN.md §4), which is what makes the eigensolver's batched applies
/// fast.
class LaplacianPinvOperator final : public la::LinearOperator {
 public:
  /// Keeps a reference to `solver`; it must outlive the operator.
  explicit LaplacianPinvOperator(const LaplacianPinvSolver& solver,
                                 Index num_threads = 0)
      : solver_(solver), num_threads_(num_threads) {}

  [[nodiscard]] Index rows() const noexcept override {
    return solver_.num_nodes();
  }
  [[nodiscard]] Index cols() const noexcept override {
    return solver_.num_nodes();
  }

  void apply(const la::Vector& x, la::Vector& y) const override {
    y = solver_.apply(x);
  }

  void apply_block(la::ConstBlockView x, la::BlockView y) const override {
    solver_.apply_block(x, y, num_threads_);
  }

 private:
  const LaplacianPinvSolver& solver_;
  Index num_threads_;
};

}  // namespace sgl::solver
