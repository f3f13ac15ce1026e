// Fill-reducing orderings for sparse symmetric factorization.
//
// A permutation is represented as perm[new_position] = old_index; the
// factorization works on P A Pᵀ. Three families are provided:
//   - RCM: bandwidth-reducing, cheap (O(|E|)), good for long thin meshes;
//   - approximate minimum degree on the quotient graph (AMD), excellent
//     on the ultra-sparse (tree + εN) graphs SGL produces and on meshes
//     up to the size where nested dissection takes over;
//   - BFS nested dissection: level-set separators, recursion; the right
//     choice for large 2D meshes where MD's fill grows.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "la/sparse.hpp"

namespace sgl::solver {

enum class OrderingMethod {
  kNatural,
  kRcm,
  kMinimumDegree,
  kNestedDissection,
  /// Heuristic pick: MD below ~30k rows or when the matrix is very sparse,
  /// nested dissection otherwise.
  kAuto,
};

/// CLI-facing name: "natural", "rcm", "amd" (minimum degree), "nd"
/// (nested dissection), "auto".
[[nodiscard]] const char* ordering_method_name(OrderingMethod method);

/// Inverse of ordering_method_name; nullopt for unknown names.
[[nodiscard]] std::optional<OrderingMethod> parse_ordering_method(
    std::string_view name);

/// Comma-joined valid names for CLI error messages.
[[nodiscard]] std::string ordering_method_name_list();

/// Identity permutation.
[[nodiscard]] std::vector<Index> natural_ordering(Index n);

/// Reverse Cuthill–McKee on the symmetric pattern of a.
[[nodiscard]] std::vector<Index> rcm_ordering(const la::CsrMatrix& a);

/// Approximate minimum degree (Amestoy–Davis–Duff) on the quotient
/// graph of the symmetric pattern of a (diagonal ignored): element
/// absorption, supervariables, approximate external degrees, dense rows
/// last, output in assembly-tree postorder. Deterministic (DESIGN.md §4).
[[nodiscard]] std::vector<Index> minimum_degree_ordering(const la::CsrMatrix& a);

/// Recursive BFS level-set nested dissection.
[[nodiscard]] std::vector<Index> nested_dissection_ordering(
    const la::CsrMatrix& a);

/// Dispatches on method (resolving kAuto as documented above).
[[nodiscard]] std::vector<Index> compute_ordering(const la::CsrMatrix& a,
                                                  OrderingMethod method);

/// inverse[perm[i]] = i.
[[nodiscard]] std::vector<Index> invert_permutation(
    const std::vector<Index>& perm);

/// Symmetric permutation: returns P A Pᵀ for perm[new] = old.
[[nodiscard]] la::CsrMatrix permute_symmetric(const la::CsrMatrix& a,
                                              const std::vector<Index>& perm);

}  // namespace sgl::solver
