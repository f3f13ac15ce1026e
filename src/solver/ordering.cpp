#include "solver/ordering.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/contracts.hpp"
#include "common/enum_names.hpp"

namespace sgl::solver {

namespace {

/// Pattern adjacency (diagonal stripped) of a square symmetric matrix.
struct Pattern {
  std::vector<Index> row_ptr;
  std::vector<Index> col;

  [[nodiscard]] Index n() const noexcept { return to_index(row_ptr.size()) - 1; }
  [[nodiscard]] Index degree(Index i) const {
    return row_ptr[static_cast<std::size_t>(i) + 1] -
           row_ptr[static_cast<std::size_t>(i)];
  }
};

Pattern strip_diagonal(const la::CsrMatrix& a) {
  SGL_EXPECTS(a.rows() == a.cols(), "ordering: matrix must be square");
  Pattern p;
  const Index n = a.rows();
  p.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  p.col.reserve(a.values().size());
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  for (Index i = 0; i < n; ++i) {
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const Index j = ci[static_cast<std::size_t>(k)];
      if (j != i) p.col.push_back(j);
    }
    p.row_ptr[static_cast<std::size_t>(i) + 1] = to_index(p.col.size());
  }
  return p;
}

/// BFS returning nodes of one component in visit order, starting from the
/// lowest-degree endpoint of a pseudo-peripheral search.
Index pseudo_peripheral(const Pattern& p, Index start,
                        std::vector<Index>& dist_scratch) {
  Index current = start;
  Index best_ecc = -1;
  std::vector<Index> queue;
  for (int round = 0; round < 6; ++round) {
    std::fill(dist_scratch.begin(), dist_scratch.end(), kInvalidIndex);
    queue.clear();
    queue.push_back(current);
    dist_scratch[static_cast<std::size_t>(current)] = 0;
    Index far_node = current;
    Index far_dist = 0;
    Index far_deg = p.degree(current);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Index u = queue[head];
      for (Index k = p.row_ptr[static_cast<std::size_t>(u)];
           k < p.row_ptr[static_cast<std::size_t>(u) + 1]; ++k) {
        const Index v = p.col[static_cast<std::size_t>(k)];
        if (dist_scratch[static_cast<std::size_t>(v)] != kInvalidIndex) continue;
        dist_scratch[static_cast<std::size_t>(v)] =
            dist_scratch[static_cast<std::size_t>(u)] + 1;
        queue.push_back(v);
        const Index dv = dist_scratch[static_cast<std::size_t>(v)];
        const Index degv = p.degree(v);
        if (dv > far_dist || (dv == far_dist && degv < far_deg)) {
          far_dist = dv;
          far_node = v;
          far_deg = degv;
        }
      }
    }
    if (far_dist <= best_ecc) break;
    best_ecc = far_dist;
    current = far_node;
  }
  return current;
}

}  // namespace

std::vector<Index> natural_ordering(Index n) {
  std::vector<Index> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), Index{0});
  return perm;
}

std::vector<Index> rcm_ordering(const la::CsrMatrix& a) {
  const Pattern p = strip_diagonal(a);
  const Index n = p.n();
  std::vector<Index> perm;
  perm.reserve(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<Index> dist(static_cast<std::size_t>(n));
  std::vector<Index> nbrs;

  for (Index seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    const Index root = pseudo_peripheral(p, seed, dist);
    // Cuthill–McKee BFS: neighbors appended in increasing-degree order.
    std::vector<Index> queue{root};
    visited[static_cast<std::size_t>(root)] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Index u = queue[head];
      perm.push_back(u);
      nbrs.clear();
      for (Index k = p.row_ptr[static_cast<std::size_t>(u)];
           k < p.row_ptr[static_cast<std::size_t>(u) + 1]; ++k) {
        const Index v = p.col[static_cast<std::size_t>(k)];
        if (!visited[static_cast<std::size_t>(v)]) {
          visited[static_cast<std::size_t>(v)] = true;
          nbrs.push_back(v);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&p](Index x, Index y) {
        return p.degree(x) < p.degree(y);
      });
      for (const Index v : nbrs) queue.push_back(v);
    }
  }
  std::reverse(perm.begin(), perm.end());
  return perm;
}

namespace {

/// elen of a node that left the variable set as a pivot (an element).
constexpr Index kElement = -1;
/// elen of a node that left it any other way: merged into a
/// supervariable, mass-eliminated with a pivot, or set aside as dense.
constexpr Index kAbsorbed = -2;

/// Approximate minimum degree on the quotient graph (Amestoy, Davis &
/// Duff, SIAM J. Matrix Anal. Appl. 17(4), 1996). Eliminated pivots stay
/// in the graph as elements (the cliques their elimination created), so
/// the graph never grows past the input; `adj[i]` of a variable holds its
/// elements (the first elen[i] entries) then its variables, and `adj[e]`
/// of a live element its variables Le. Each step:
///   1. takes the variable of least approximate degree (ties: the most
///      recently bucketed one — a pure function of the pattern);
///   2. forms its element Lme from its elements' Le and its variables,
///      absorbing those elements;
///   3. counts |Le \ Lme| for every element next to Lme;
///   4. re-scans each i in Lme: absorbs elements with Le ⊆ Lme
///      (aggressive absorption), prunes variables that Lme now covers,
///      mass-eliminates i if me is all it touches, and bounds its degree
///      by n − k, d_i + |Lme \ i| and |A_i| + |Lme \ i| + Σ |Le \ Lme|;
///   5. merges indistinguishable variables (equal lists, found by hash)
///      into supervariables, which then move as one weighted node;
///   6. re-buckets the surviving variables of Lme under their new degrees.
/// Rows denser than max(16, 10√n) are set aside and ordered last, as in
/// AMD. The output is the assembly tree's postorder, each pivot preceded
/// by the variables eliminated with it, so chains of the elimination tree
/// are contiguous and the factor's column blocks stay long.
class ApproximateMinimumDegree {
 public:
  explicit ApproximateMinimumDegree(const Pattern& p)
      : n_(p.n()),
        adj_(at(n_)),
        elen_(at(n_), 0),
        nv_(at(n_), 1),
        degree_(at(n_), 0),
        parent_(at(n_), kInvalidIndex),
        w_(at(n_), 1),
        mark_(at(n_), 0),
        head_(at(n_) + 1, kInvalidIndex),
        next_(at(n_), kInvalidIndex),
        prev_(at(n_), kInvalidIndex) {
    const auto ten_root_n =
        static_cast<Index>(10.0 * std::sqrt(static_cast<double>(n_)));
    const Index dense = std::min(n_, std::max<Index>(16, ten_root_n));
    for (Index i = 0; i < n_; ++i) {
      if (p.degree(i) > dense) {
        nv_[at(i)] = 0;
        elen_[at(i)] = kAbsorbed;
        ++num_dense_;
      }
    }
    for (Index i = n_ - 1; i >= 0; --i) {
      if (nv_[at(i)] == 0) continue;
      auto& li = adj_[at(i)];
      for (Index k = p.row_ptr[at(i)]; k < p.row_ptr[at(i) + 1]; ++k) {
        const Index j = p.col[at(k)];
        if (nv_[at(j)] != 0) li.push_back(j);
      }
      degree_[at(i)] = to_index(li.size());
      bucket_insert(i);
    }
  }

  std::vector<Index> run() {
    const Index num_sparse = n_ - num_dense_;
    Index eliminated = 0;
    while (eliminated < num_sparse) {
      while (head_[at(min_degree_)] == kInvalidIndex) ++min_degree_;
      const Index me = head_[at(min_degree_)];
      bucket_remove(me);
      pivots_.push_back(me);
      eliminated += eliminate(me, num_sparse - eliminated);
    }
    return postorder_permutation();
  }

 private:
  static std::size_t at(Index i) { return static_cast<std::size_t>(i); }

  void bucket_insert(Index i) {
    const Index d = degree_[at(i)];
    const Index h = head_[at(d)];
    next_[at(i)] = h;
    prev_[at(i)] = kInvalidIndex;
    if (h != kInvalidIndex) prev_[at(h)] = i;
    head_[at(d)] = i;
    min_degree_ = std::min(min_degree_, d);
  }

  void bucket_remove(Index i) {
    const Index nx = next_[at(i)];
    const Index pv = prev_[at(i)];
    if (nx != kInvalidIndex) prev_[at(nx)] = pv;
    if (pv != kInvalidIndex) {
      next_[at(pv)] = nx;
    } else {
      head_[at(degree_[at(i)])] = nx;
    }
  }

  /// Absorbs node x (an element or a merged variable) into `into`.
  void absorb(Index x, Index into) {
    parent_[at(x)] = into;
    std::vector<Index>().swap(adj_[at(x)]);
  }

  /// Eliminates pivot `me`; returns the weight removed from the variable
  /// set (me's supervariable plus everything mass-eliminated with it).
  /// `remaining` is the variable weight left before this step.
  Index eliminate(Index me, Index remaining) {
    Index nvpiv = nv_[at(me)];
    nv_[at(me)] = -nvpiv;  // excluded from Lme like its members

    // --- 2. Lme; members are flagged by a negated nv. --------------------
    lme_.clear();
    Index degme = 0;
    const auto take = [&](Index i) {
      const Index nvi = nv_[at(i)];
      if (nvi <= 0) return;  // pivot, already in Lme, or non-principal
      degme += nvi;
      nv_[at(i)] = -nvi;
      lme_.push_back(i);
      bucket_remove(i);
    };
    auto& lst = adj_[at(me)];
    for (Index k = 0; k < elen_[at(me)]; ++k) {
      const Index e = lst[at(k)];
      if (w_[at(e)] == 0) continue;
      for (const Index i : adj_[at(e)]) take(i);
      w_[at(e)] = 0;
      absorb(e, me);
    }
    for (std::size_t k = at(elen_[at(me)]); k < lst.size(); ++k) take(lst[k]);
    elen_[at(me)] = kElement;

    // --- 3. w(e) − wflg = |Le \ Lme| for every element touching Lme. ----
    for (const Index i : lme_) {
      const Index nvi = -nv_[at(i)];
      const auto& li = adj_[at(i)];
      for (Index k = 0; k < elen_[at(i)]; ++k) {
        std::int64_t& we = w_[at(li[at(k)])];
        if (we >= wflg_) {
          we -= nvi;
        } else if (we != 0) {
          we = degree_[at(li[at(k)])] + wflg_ - nvi;
        }
      }
    }

    // --- 4. Degree update, absorption, pruning, mass elimination. -------
    hashed_.clear();
    for (const Index i : lme_) {
      auto& li = adj_[at(i)];
      const Index nvi = -nv_[at(i)];
      Index deg = 0;
      std::uint64_t hash = 0;
      std::size_t kept = 0;
      for (Index k = 0; k < elen_[at(i)]; ++k) {
        const Index e = li[at(k)];
        const std::int64_t we = w_[at(e)];
        if (we == 0) continue;  // absorbed
        const auto outside = static_cast<Index>(we - wflg_);
        if (outside > 0) {
          deg += outside;
          li[kept++] = e;
          hash += static_cast<std::uint64_t>(e);
        } else {
          w_[at(e)] = 0;  // Le ⊆ Lme: me covers e
          absorb(e, me);
        }
      }
      const std::size_t first_var = kept;
      for (std::size_t k = at(elen_[at(i)]); k < li.size(); ++k) {
        const Index j = li[k];
        const Index nvj = nv_[at(j)];
        if (nvj <= 0) continue;  // in Lme (covered by me) or gone
        deg += nvj;
        li[kept++] = j;
        hash += static_cast<std::uint64_t>(j);
      }
      if (first_var == 0 && kept == 0) {
        // i touches nothing but me: indistinguishable from the pivot.
        degme -= nvi;
        nvpiv += nvi;
        nv_[at(i)] = 0;
        elen_[at(i)] = kAbsorbed;
        absorb(i, me);
        continue;
      }
      degree_[at(i)] = std::min(degree_[at(i)], deg);
      // Prepend me: the first variable moves to the end and the first
      // element to the end of the element run.
      li.resize(kept + 1);
      li[kept] = li[first_var];
      li[first_var] = li[0];
      li[0] = me;
      elen_[at(i)] = to_index(first_var) + 1;
      hashed_.emplace_back(hash, i);
    }

    // --- 5. Supervariables: equal hashes, then equal lists. -------------
    std::sort(hashed_.begin(), hashed_.end());
    for (std::size_t b = 0; b < hashed_.size();) {
      std::size_t end = b + 1;
      while (end < hashed_.size() && hashed_[end].first == hashed_[b].first)
        ++end;
      for (std::size_t x = b; x + 1 < end; ++x) {
        const Index i = hashed_[x].second;
        if (nv_[at(i)] == 0) continue;
        const auto& li = adj_[at(i)];
        ++stamp_;
        for (const Index v : li) mark_[at(v)] = stamp_;
        for (std::size_t y = x + 1; y < end; ++y) {
          const Index j = hashed_[y].second;
          const auto& lj = adj_[at(j)];
          if (nv_[at(j)] == 0 || lj.size() != li.size() ||
              elen_[at(j)] != elen_[at(i)] ||
              !std::all_of(lj.begin(), lj.end(),
                           [&](Index v) { return mark_[at(v)] == stamp_; }))
            continue;
          nv_[at(i)] += nv_[at(j)];  // both negated
          nv_[at(j)] = 0;
          elen_[at(j)] = kAbsorbed;
          absorb(j, i);
        }
      }
      b = end;
    }

    // --- 6. Final degrees; Lme keeps only principal variables. ----------
    const Index left = remaining - nvpiv;
    std::size_t kept = 0;
    for (const Index i : lme_) {
      const Index nvi = -nv_[at(i)];
      if (nvi <= 0) continue;  // merged or mass-eliminated
      nv_[at(i)] = nvi;
      degree_[at(i)] = std::min(degree_[at(i)] + degme - nvi, left - nvi);
      bucket_insert(i);
      lme_[kept++] = i;
    }
    lme_.resize(kept);
    adj_[at(me)].assign(lme_.begin(), lme_.end());
    degree_[at(me)] = degme;
    nv_[at(me)] = 0;
    // Every w touched this step lies in [wflg, wflg + n); moving past
    // that range retires them all without a clearing pass.
    wflg_ += n_ + 1;
    return nvpiv;
  }

  /// Postorder of the assembly tree (pivots, parent = absorbing element;
  /// children in elimination order), each pivot preceded by the
  /// variables eliminated with it in ascending index; dense rows last.
  std::vector<Index> postorder_permutation() {
    std::vector<Index> first_child(at(n_), kInvalidIndex);
    std::vector<Index> sibling(at(n_), kInvalidIndex);
    for (auto it = pivots_.rbegin(); it != pivots_.rend(); ++it) {
      const Index pe = parent_[at(*it)];
      if (pe == kInvalidIndex) continue;
      sibling[at(*it)] = first_child[at(pe)];
      first_child[at(pe)] = *it;
    }

    // Every non-pivot, non-dense node follows its absorption chain to the
    // pivot it is eliminated with; group sizes give each pivot its slots.
    std::vector<Index> owner(at(n_), kInvalidIndex);
    std::vector<Index> slot(at(n_), 0);
    for (Index x = 0; x < n_; ++x) {
      if (elen_[at(x)] == kElement || parent_[at(x)] == kInvalidIndex) continue;
      Index e = parent_[at(x)];
      while (elen_[at(e)] != kElement) e = parent_[at(e)];
      for (Index y = x; elen_[at(y)] != kElement;) {  // path compression
        const Index up = parent_[at(y)];
        parent_[at(y)] = e;
        y = up;
      }
      owner[at(x)] = e;
      ++slot[at(e)];
    }

    Index cursor = 0;
    std::vector<Index> stack;
    for (const Index root : pivots_) {
      if (parent_[at(root)] != kInvalidIndex) continue;
      stack.push_back(root);
      while (!stack.empty()) {
        const Index x = stack.back();
        const Index c = first_child[at(x)];
        if (c != kInvalidIndex) {
          first_child[at(x)] = sibling[at(c)];
          stack.push_back(c);
          continue;
        }
        stack.pop_back();
        const Index group = slot[at(x)] + 1;
        slot[at(x)] = cursor;
        cursor += group;
      }
    }

    std::vector<Index> perm(at(n_), kInvalidIndex);
    for (Index x = 0; x < n_; ++x) {
      if (owner[at(x)] == kInvalidIndex) continue;
      perm[at(slot[at(owner[at(x)])]++)] = x;
    }
    for (const Index e : pivots_) perm[at(slot[at(e)])] = e;
    for (Index x = 0; x < n_; ++x) {
      if (elen_[at(x)] == kAbsorbed && parent_[at(x)] == kInvalidIndex)
        perm[at(cursor++)] = x;
    }
    return perm;
  }

  Index n_;
  std::vector<std::vector<Index>> adj_;
  std::vector<Index> elen_;
  /// Supervariable weight of a principal variable; 0 once it left the
  /// variable set; negated while it is a member of the current Lme.
  std::vector<Index> nv_;
  /// Approximate external degree (variables), |Le| (elements).
  std::vector<Index> degree_;
  std::vector<Index> parent_;
  /// Element liveness (0 = absorbed) and the |Le \ Lme| counters, offset
  /// by wflg_ so that no per-step clearing is needed.
  std::vector<std::int64_t> w_;
  std::int64_t wflg_ = 2;
  std::vector<std::int64_t> mark_;
  std::int64_t stamp_ = 0;
  // Degree buckets: doubly linked lists, inserted at the head.
  std::vector<Index> head_;
  std::vector<Index> next_;
  std::vector<Index> prev_;
  Index min_degree_ = 0;
  Index num_dense_ = 0;
  std::vector<Index> pivots_;
  std::vector<Index> lme_;
  std::vector<std::pair<std::uint64_t, Index>> hashed_;
};

}  // namespace

std::vector<Index> minimum_degree_ordering(const la::CsrMatrix& a) {
  const Pattern p = strip_diagonal(a);
  std::vector<Index> perm = ApproximateMinimumDegree(p).run();
  SGL_ENSURES(std::find(perm.begin(), perm.end(), kInvalidIndex) == perm.end(),
              "minimum_degree_ordering: incomplete permutation");
  return perm;
}

namespace {

/// Orders the node set `nodes` (a connected or disconnected induced
/// subgraph) by recursive level-set dissection, appending to `out`.
/// `next_tag` hands out globally unique membership tags so stale tags from
/// already-processed subtrees can never alias the current subset.
void dissect(const Pattern& p, std::vector<Index>& nodes,
             std::vector<Index>& membership, Index& next_tag,
             std::vector<Index>& out) {
  constexpr Index kLeafSize = 48;
  if (to_index(nodes.size()) <= kLeafSize) {
    // Leaf: small enough that elimination order barely matters.
    std::sort(nodes.begin(), nodes.end());
    out.insert(out.end(), nodes.begin(), nodes.end());
    return;
  }

  const Index tag = next_tag++;
  for (const Index v : nodes) membership[static_cast<std::size_t>(v)] = tag;

  // BFS from an arbitrary member; levels define the separator.
  // Local indices come from binary search over the sorted node list.
  std::vector<Index> dist(nodes.size(), kInvalidIndex);
  std::sort(nodes.begin(), nodes.end());
  const auto local_index = [&nodes](Index v) {
    return to_index(static_cast<std::size_t>(
        std::lower_bound(nodes.begin(), nodes.end(), v) - nodes.begin()));
  };

  std::vector<Index> queue{nodes.front()};
  dist[0] = 0;
  Index max_level = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Index u = queue[head];
    const Index lu = local_index(u);
    for (Index k = p.row_ptr[static_cast<std::size_t>(u)];
         k < p.row_ptr[static_cast<std::size_t>(u) + 1]; ++k) {
      const Index v = p.col[static_cast<std::size_t>(k)];
      if (membership[static_cast<std::size_t>(v)] != tag) continue;
      const Index lv = local_index(v);
      if (dist[static_cast<std::size_t>(lv)] != kInvalidIndex) continue;
      dist[static_cast<std::size_t>(lv)] = dist[static_cast<std::size_t>(lu)] + 1;
      max_level = std::max(max_level, dist[static_cast<std::size_t>(lv)]);
      queue.push_back(v);
    }
  }

  // Disconnected subset: nodes unreached by the BFS form their own part.
  // Split into (reached, unreached) and recurse on each.
  if (to_index(queue.size()) < to_index(nodes.size())) {
    std::vector<Index> reached, unreached;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (dist[i] == kInvalidIndex) unreached.push_back(nodes[i]);
      else reached.push_back(nodes[i]);
    }
    dissect(p, unreached, membership, next_tag, out);
    dissect(p, reached, membership, next_tag, out);
    return;
  }

  if (max_level < 2) {
    // Graph too tight to bisect by levels (e.g. near-clique): fall back to
    // degree order to guarantee progress.
    out.insert(out.end(), nodes.begin(), nodes.end());
    return;
  }

  // Median level by cumulative counts.
  std::vector<Index> level_count(static_cast<std::size_t>(max_level) + 1, 0);
  for (const Index d : dist) ++level_count[static_cast<std::size_t>(d)];
  Index half = to_index(nodes.size()) / 2;
  Index sep_level = 0;
  Index acc = 0;
  for (Index l = 0; l <= max_level; ++l) {
    acc += level_count[static_cast<std::size_t>(l)];
    if (acc >= half) {
      sep_level = l;
      break;
    }
  }
  // Keep the separator strictly interior so both sides are nonempty.
  sep_level = std::clamp(sep_level, Index{1}, max_level - 1);

  std::vector<Index> left, right, sep;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (dist[i] < sep_level) left.push_back(nodes[i]);
    else if (dist[i] == sep_level) sep.push_back(nodes[i]);
    else right.push_back(nodes[i]);
  }
  dissect(p, left, membership, next_tag, out);
  dissect(p, right, membership, next_tag, out);
  // Separator is ordered last (eliminated last = appears last in perm).
  out.insert(out.end(), sep.begin(), sep.end());
}

}  // namespace

std::vector<Index> nested_dissection_ordering(const la::CsrMatrix& a) {
  const Pattern p = strip_diagonal(a);
  const Index n = p.n();
  std::vector<Index> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), Index{0});
  std::vector<Index> membership(static_cast<std::size_t>(n), -1);
  std::vector<Index> perm;
  perm.reserve(static_cast<std::size_t>(n));
  Index next_tag = 0;
  dissect(p, nodes, membership, next_tag, perm);
  SGL_ENSURES(to_index(perm.size()) == n,
              "nested_dissection_ordering: incomplete permutation");
  return perm;
}

namespace {
constexpr std::array<common::EnumName<OrderingMethod>, 5> kOrderingNames{{
    {OrderingMethod::kNatural, "natural"},
    {OrderingMethod::kRcm, "rcm"},
    {OrderingMethod::kMinimumDegree, "amd"},
    {OrderingMethod::kNestedDissection, "nd"},
    {OrderingMethod::kAuto, "auto"},
}};
}  // namespace

const char* ordering_method_name(OrderingMethod method) {
  return common::enum_name(kOrderingNames, method);
}

std::optional<OrderingMethod> parse_ordering_method(std::string_view name) {
  return common::parse_enum(kOrderingNames, name);
}

std::string ordering_method_name_list() {
  return common::enum_name_list(kOrderingNames);
}

std::vector<Index> compute_ordering(const la::CsrMatrix& a,
                                    OrderingMethod method) {
  switch (method) {
    case OrderingMethod::kNatural:
      return natural_ordering(a.rows());
    case OrderingMethod::kRcm:
      return rcm_ordering(a);
    case OrderingMethod::kMinimumDegree:
      return minimum_degree_ordering(a);
    case OrderingMethod::kNestedDissection:
      return nested_dissection_ordering(a);
    case OrderingMethod::kAuto: {
      const Index n = a.rows();
      const Real avg_row = n > 0 ? static_cast<Real>(a.nnz()) / n : 0.0;
      // Ultra-sparse graphs (trees + a few edges) and small systems: MD.
      // Large meshes: nested dissection bounds the fill growth.
      if (n <= 30000 || avg_row <= 3.5) return minimum_degree_ordering(a);
      return nested_dissection_ordering(a);
    }
  }
  SGL_EXPECTS(false, "compute_ordering: unknown method");
  return {};
}

std::vector<Index> invert_permutation(const std::vector<Index>& perm) {
  std::vector<Index> inv(perm.size(), kInvalidIndex);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    SGL_EXPECTS(perm[i] >= 0 && perm[i] < to_index(perm.size()),
                "invert_permutation: entry out of range");
    SGL_EXPECTS(inv[static_cast<std::size_t>(perm[i])] == kInvalidIndex,
                "invert_permutation: not a permutation");
    inv[static_cast<std::size_t>(perm[i])] = to_index(i);
  }
  return inv;
}

la::CsrMatrix permute_symmetric(const la::CsrMatrix& a,
                                const std::vector<Index>& perm) {
  SGL_EXPECTS(a.rows() == a.cols(), "permute_symmetric: matrix must be square");
  SGL_EXPECTS(to_index(perm.size()) == a.rows(),
              "permute_symmetric: permutation size mismatch");
  const std::vector<Index> inv = invert_permutation(perm);
  std::vector<la::Triplet> triplets;
  triplets.reserve(a.values().size());
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vv = a.values();
  for (Index i = 0; i < a.rows(); ++i)
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      triplets.push_back({inv[static_cast<std::size_t>(i)],
                          inv[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])],
                          vv[static_cast<std::size_t>(k)]});
  return la::CsrMatrix::from_triplets(a.rows(), a.cols(), triplets);
}

}  // namespace sgl::solver
