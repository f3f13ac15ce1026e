#include "solver/solver_context.hpp"

#include <array>
#include <utility>
#include <vector>

#include "common/enum_names.hpp"

namespace sgl::solver {
namespace {

constexpr std::array<common::EnumName<IncrementalMode>, 2> kModeNames{{
    {IncrementalMode::kAuto, "auto"},
    {IncrementalMode::kOff, "off"},
}};

}  // namespace

const char* incremental_mode_name(IncrementalMode mode) {
  return common::enum_name(kModeNames, mode);
}

std::optional<IncrementalMode> parse_incremental_mode(std::string_view name) {
  return common::parse_enum(kModeNames, name);
}

std::string incremental_mode_name_list() {
  return common::enum_name_list(kModeNames);
}

SolverContext::SolverContext(SolverContextOptions options)
    : options_(std::move(options)) {}

void SolverContext::invalidate() {
  solver_.reset();
  key_ = {};
  ordering_reuses_in_a_row_ = 0;
  warm_subspace_ = la::DenseMatrix();
}

void SolverContext::store_warm_subspace(la::DenseMatrix basis) {
  // kOff promises bitwise-historical behavior for every consumer, so the
  // warm-start slot stays empty there (a seeded Lanczos run would change
  // the float stream even when it converges to the same pairs).
  if (!incremental()) return;
  warm_subspace_ = std::move(basis);
}

const LaplacianPinvSolver& SolverContext::acquire(const graph::Graph& g) {
  ++stats_.acquisitions;
  const graph::GraphKey key = graph::graph_key(g);
  // kOff is the historical behavior: every consumer builds its own solver.
  if (!incremental() || !solver_ || key != key_) rebuild(g, key);
  return *solver_;
}

void SolverContext::rebuild(const graph::Graph& g, const graph::GraphKey& key) {
  // In kAuto a rebuild over the same node set reuses the outgoing
  // factor's fill-reducing permutation: the ordering heuristic dominates
  // rebuild cost on near-tree graphs, and a permutation computed a few
  // edges ago still reduces fill well. A fresh ordering is computed after
  // kMaxOrderingReuses consecutive reuses to shed the slow fill drift;
  // kOff never reuses (bitwise the historical from-scratch build).
  const bool same_nodes = solver_ && solver_->num_nodes() == g.num_nodes();
  std::vector<Index> ordering_hint;
  if (incremental() && same_nodes &&
      ordering_reuses_in_a_row_ < kMaxOrderingReuses) {
    ordering_hint = solver_->cholesky_permutation();
  }
  const bool reused_ordering = !ordering_hint.empty();
  solver_ = std::make_unique<LaplacianPinvSolver>(g, options_.solver,
                                                  std::move(ordering_hint));
  key_ = key;
  ++stats_.rebuilds;
  if (same_nodes) ++stats_.pattern_misses;
  if (reused_ordering) {
    ++stats_.ordering_reuses;
    ++ordering_reuses_in_a_row_;
  } else {
    ordering_reuses_in_a_row_ = 0;
  }
}

}  // namespace sgl::solver
