// Preconditioner interface and the identity preconditioner.
//
// A preconditioner approximates A⁻¹ with a fixed symmetric positive
// definite operator z = M⁻¹ r — the contract PCG requires. apply_block is
// the block-PCG seam: the default routes column by column through
// apply(), and AMG overrides it with a V-cycle that streams its hierarchy
// once per block.
#pragma once

#include "la/multi_vector.hpp"
#include "la/vector_ops.hpp"

namespace sgl::solver {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z = M⁻¹ r. `z` is resized as needed.
  virtual void apply(const la::Vector& r, la::Vector& z) const = 0;

  /// Z = M⁻¹ R for an n × b block. The base implementation runs the b
  /// columns through apply() column-parallel (`num_threads`: 0 = library
  /// default, 1 = serial); every override must keep each column bitwise
  /// equal to apply() for every thread count.
  virtual void apply_block(la::ConstBlockView r, la::BlockView z,
                           Index num_threads = 0) const;

  /// Problem dimension.
  [[nodiscard]] virtual Index size() const noexcept = 0;
};

/// M = I (plain conjugate gradient).
class IdentityPreconditioner final : public Preconditioner {
 public:
  explicit IdentityPreconditioner(Index n) : n_(n) {}
  void apply(const la::Vector& r, la::Vector& z) const override { z = r; }
  [[nodiscard]] Index size() const noexcept override { return n_; }

 private:
  Index n_;
};

}  // namespace sgl::solver
