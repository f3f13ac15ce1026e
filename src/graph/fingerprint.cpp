#include "graph/fingerprint.hpp"

#include <bit>

namespace sgl::graph {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffULL;
    h *= kFnvPrime;
  }
}

/// Digest over the endpoints of every edge (pattern identity).
std::uint64_t endpoint_fingerprint(const Graph& g) {
  std::uint64_t h = kFnvOffset;
  for (const Edge& e : g.edges()) {
    fnv_mix(h, static_cast<std::uint64_t>(e.s));
    fnv_mix(h, static_cast<std::uint64_t>(e.t));
  }
  return h;
}

/// Digest over the endpoints AND weight bit patterns of every edge
/// (numeric identity).
std::uint64_t weight_fingerprint(const Graph& g) {
  std::uint64_t h = kFnvOffset;
  for (const Edge& e : g.edges()) {
    fnv_mix(h, static_cast<std::uint64_t>(e.s));
    fnv_mix(h, static_cast<std::uint64_t>(e.t));
    fnv_mix(h, std::bit_cast<std::uint64_t>(e.weight));
  }
  return h;
}

}  // namespace

GraphKey graph_key(const Graph& g) {
  return {g.num_nodes(), g.num_edges(), endpoint_fingerprint(g),
          weight_fingerprint(g)};
}

}  // namespace sgl::graph
