#include "solver/preconditioner.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace sgl::solver {

void Preconditioner::apply_block(la::ConstBlockView r, la::BlockView z,
                                 Index num_threads) const {
  SGL_EXPECTS(r.rows == size() && z.rows == size(),
              "Preconditioner::apply_block: row count mismatch");
  SGL_EXPECTS(r.cols == z.cols,
              "Preconditioner::apply_block: column count mismatch");
  // Column-parallel fallback: each column runs the exact apply() kernel
  // into per-column scratch, so the block is bit-identical to b
  // sequential apply() calls for every thread count.
  parallel::parallel_for(0, r.cols, num_threads, [&](Index j) {
    const std::span<const Real> rj = r.col(j);
    la::Vector rv(rj.begin(), rj.end());
    la::Vector zv;
    apply(rv, zv);
    const std::span<Real> zj = z.col(j);
    std::copy(zv.begin(), zv.end(), zj.begin());
  });
}

}  // namespace sgl::solver
