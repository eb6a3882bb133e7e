#include "ordering/nested_dissection.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace sptrsv {

NdTree::NdTree(int levels, std::vector<NdNode> nodes)
    : levels_(levels), nodes_(std::move(nodes)) {
  if (nodes_.size() != static_cast<size_t>((Idx{1} << (levels_ + 1)) - 1)) {
    throw std::invalid_argument("NdTree: node count must be 2^(levels+1)-1");
  }
}

std::vector<Idx> NdTree::path_to_root(Idx id) const {
  std::vector<Idx> path;
  for (Idx v = id; v != kNoIdx; v = nodes_[static_cast<size_t>(v)].parent) {
    path.push_back(v);
  }
  return path;
}

std::pair<Idx, Idx> NdTree::leaf_range(Idx id) const {
  const int d = nodes_[static_cast<size_t>(id)].depth;
  const Idx row_pos = id - ((Idx{1} << d) - 1);
  const int shift = levels_ - d;
  return {row_pos << shift, (row_pos + 1) << shift};
}

Idx NdTree::node_of_column(Idx c) const {
  for (Idx id = 0; id < num_nodes(); ++id) {
    const auto& nd = nodes_[static_cast<size_t>(id)];
    if (c >= nd.col_begin && c < nd.col_end) return id;
  }
  return kNoIdx;
}

bool NdTree::check_invariants(Idx n) const {
  if (nodes_.empty()) return n == 0;
  // Recursively verify: subtree of `id` occupies a contiguous range ending
  // with the node's own columns, children packed left-then-right.
  struct Checker {
    const NdTree& t;
    bool ok = true;
    // Returns [lo, hi) covered by the subtree.
    std::pair<Idx, Idx> visit(Idx id) {
      const auto& nd = t.nodes_[static_cast<size_t>(id)];
      if (nd.col_begin > nd.col_end) ok = false;
      if (nd.left == kNoIdx) {
        if (nd.right != kNoIdx) ok = false;
        return {nd.col_begin, nd.col_end};
      }
      const auto [la, lb] = visit(nd.left);
      const auto [ra, rb] = visit(nd.right);
      if (lb != ra || rb != nd.col_begin) ok = false;
      if (t.nodes_[static_cast<size_t>(nd.left)].parent != id ||
          t.nodes_[static_cast<size_t>(nd.right)].parent != id) {
        ok = false;
      }
      return {la, nd.col_end};
    }
  };
  Checker c{*this};
  const auto [lo, hi] = c.visit(0);
  return c.ok && lo == 0 && hi == n;
}

std::vector<std::uint8_t> bisect_graph(const Graph& g, Real balance) {
  const Idx n = g.num_vertices();
  std::vector<std::uint8_t> label(static_cast<size_t>(n), 1);  // default: part B
  if (n == 0) return label;

  // BFS level structure; returns (levels vector with kNoIdx for unreached,
  // farthest vertex, max level).
  auto bfs = [&](Idx root, std::vector<Idx>& level) {
    level.assign(static_cast<size_t>(n), kNoIdx);
    std::vector<Idx> frontier{root};
    level[static_cast<size_t>(root)] = 0;
    Idx far = root;
    Idx max_lvl = 0;
    while (!frontier.empty()) {
      std::vector<Idx> next;
      for (const Idx v : frontier) {
        for (const Idx u : g.neighbors(v)) {
          if (level[static_cast<size_t>(u)] == kNoIdx) {
            level[static_cast<size_t>(u)] = level[static_cast<size_t>(v)] + 1;
            if (level[static_cast<size_t>(u)] > max_lvl) {
              max_lvl = level[static_cast<size_t>(u)];
              far = u;
            }
            next.push_back(u);
          }
        }
      }
      frontier = std::move(next);
    }
    return std::pair<Idx, Idx>{far, max_lvl};
  };

  // Pseudo-peripheral root: two BFS sweeps from vertex 0's component.
  std::vector<Idx> level;
  auto [far1, ml1] = bfs(0, level);
  (void)ml1;
  auto [far2, max_lvl] = bfs(far1, level);
  (void)far2;

  if (max_lvl == 0) {
    // Component is a single vertex (or clique-free trivial case): that
    // vertex becomes part A; everything unreached stays in part B.
    label[static_cast<size_t>(far1)] = 0;
    return label;
  }

  // Count vertices reached per level and choose the cut level m that best
  // trades partition balance against separator size. Taking "the first
  // level where the cumulative count passes the target" degenerates on
  // graphs whose outermost BFS shell is huge (e.g. 27-point grids): the cut
  // lands on the last level, part B comes out empty, and the recursion
  // collapses. Scoring every candidate avoids that.
  std::vector<Idx> cnt(static_cast<size_t>(max_lvl) + 1, 0);
  Idx reached = 0;
  for (Idx v = 0; v < n; ++v) {
    if (level[static_cast<size_t>(v)] != kNoIdx) {
      ++cnt[static_cast<size_t>(level[static_cast<size_t>(v)])];
      ++reached;
    }
  }
  Idx m = 1;
  {
    const Real target = balance * reached;
    Real best_score = std::numeric_limits<Real>::infinity();
    Idx cum = cnt[0];  // |A| for candidate cut m = 1
    for (Idx cand = 1; cand <= max_lvl; ++cand) {
      const Idx a_size = cum;
      const Idx s_size = cnt[static_cast<size_t>(cand)];
      const Idx b_size = reached - a_size - s_size;
      Real score = std::abs(static_cast<Real>(a_size) - target) +
                   std::abs(static_cast<Real>(b_size) - (reached - target)) +
                   static_cast<Real>(s_size);
      if (b_size == 0 || a_size == 0) score += reached;  // degenerate cut
      if (score < best_score) {
        best_score = score;
        m = cand;
      }
      cum += s_size;
    }
  }

  // A = levels < m, S = level m (thinned), B = levels > m and unreached.
  Idx b_count = static_cast<Idx>(n);
  for (Idx v = 0; v < n; ++v) {
    const Idx lv = level[static_cast<size_t>(v)];
    if (lv == kNoIdx) continue;  // other component -> B
    if (lv < m) {
      label[static_cast<size_t>(v)] = 0;
      --b_count;
    } else if (lv == m) {
      label[static_cast<size_t>(v)] = 2;
      --b_count;
    }
  }
  // Thin the separator: a level-m vertex with no neighbour in B can join A
  // without creating A-B edges. Skip when B is empty — the "thinning"
  // would dissolve the separator entirely.
  if (b_count > 0) {
    for (Idx v = 0; v < n; ++v) {
      if (label[static_cast<size_t>(v)] != 2) continue;
      bool touches_b = false;
      for (const Idx u : g.neighbors(v)) {
        if (label[static_cast<size_t>(u)] == 1) {
          touches_b = true;
          break;
        }
      }
      if (!touches_b) label[static_cast<size_t>(v)] = 0;
    }
  }
  return label;
}

namespace {

/// Recursive ND builder working on global vertex id lists.
class NdBuilder {
 public:
  NdBuilder(const Graph& g, const NdOptions& opt)
      : g_(g), opt_(opt), local_(static_cast<size_t>(g.num_vertices()), kNoIdx) {
    const Idx n_nodes = (Idx{1} << (opt.levels + 1)) - 1;
    nodes_.resize(static_cast<size_t>(n_nodes));
    perm_.reserve(static_cast<size_t>(g.num_vertices()));
    for (Idx id = 0; id < n_nodes; ++id) {
      auto& nd = nodes_[static_cast<size_t>(id)];
      if (id > 0) nd.parent = (id - 1) / 2;
      nd.depth = depth_of(id);
      if (nd.depth < opt.levels) {
        nd.left = 2 * id + 1;
        nd.right = 2 * id + 2;
      }
    }
  }

  NdOrdering build() {
    std::vector<Idx> all(static_cast<size_t>(g_.num_vertices()));
    std::iota(all.begin(), all.end(), 0);
    order_tracked(std::move(all), /*node_id=*/0);
    NdOrdering out;
    out.perm = std::move(perm_);
    out.tree = NdTree(opt_.levels, std::move(nodes_));
    return out;
  }

 private:
  static int depth_of(Idx id) {
    int d = 0;
    while (id > 0) {
      id = (id - 1) / 2;
      ++d;
    }
    return d;
  }

  /// Splits `verts` by the bisection labels of their induced subgraph.
  void split(const std::vector<Idx>& verts, std::vector<Idx>& a, std::vector<Idx>& b,
             std::vector<Idx>& s) {
    const Graph sub = g_.induced_subgraph(verts, local_);
    const auto label = bisect_graph(sub, opt_.balance);
    for (size_t i = 0; i < verts.size(); ++i) {
      (label[i] == 0 ? a : label[i] == 1 ? b : s).push_back(verts[i]);
    }
  }

  void order_tracked(std::vector<Idx> verts, Idx node_id) {
    auto& nd = nodes_[static_cast<size_t>(node_id)];
    if (nd.depth == opt_.levels) {  // tracked leaf: whole remaining subdomain
      nd.col_begin = static_cast<Idx>(perm_.size());
      order_untracked(std::move(verts));
      nd.col_end = static_cast<Idx>(perm_.size());
      return;
    }
    std::vector<Idx> a, b, s;
    split(verts, a, b, s);
    order_tracked(std::move(a), nd.left);
    order_tracked(std::move(b), nd.right);
    nd.col_begin = static_cast<Idx>(perm_.size());
    emit(s);
    nd.col_end = static_cast<Idx>(perm_.size());
  }

  void order_untracked(std::vector<Idx> verts) {
    if (static_cast<Idx>(verts.size()) <= opt_.min_partition) {
      emit(verts);
      return;
    }
    std::vector<Idx> a, b, s;
    split(verts, a, b, s);
    if (a.empty() || a.size() == verts.size()) {
      // Degenerate bisection (clique-like region): stop recursing.
      emit(verts);
      return;
    }
    order_untracked(std::move(a));
    order_untracked(std::move(b));
    emit(s);
  }

  /// Appends a terminal partition or a separator in its given order.
  void emit(const std::vector<Idx>& verts) {
    perm_.insert(perm_.end(), verts.begin(), verts.end());
  }

  const Graph& g_;
  NdOptions opt_;
  /// induced_subgraph's global->local map, all kNoIdx between calls: one
  /// n-entry map for the whole recursion instead of one per bisection.
  std::vector<Idx> local_;
  std::vector<Idx> perm_;
  std::vector<NdNode> nodes_;
};

}  // namespace

NdOrdering nested_dissection(const Graph& g, const NdOptions& opt) {
  if (opt.levels < 0 || opt.levels > 20) {
    throw std::invalid_argument("nested_dissection: levels out of range");
  }
  return NdBuilder(g, opt).build();
}

NdTree coarsen_nd_tree(const NdTree& tree, int levels) {
  if (levels < 0 || levels > tree.levels()) {
    throw std::invalid_argument("coarsen_nd_tree: levels out of range");
  }
  if (levels == tree.levels()) return tree;

  // Column start of the whole subtree rooted at `id` (subtrees occupy
  // contiguous ranges ending at the root node's col_end).
  std::function<Idx(Idx)> subtree_begin = [&](Idx id) -> Idx {
    const auto& nd = tree.node(id);
    return nd.left == kNoIdx ? nd.col_begin : subtree_begin(nd.left);
  };

  const Idx n_nodes = (Idx{1} << (levels + 1)) - 1;
  std::vector<NdNode> nodes(static_cast<size_t>(n_nodes));
  for (Idx id = 0; id < n_nodes; ++id) {
    NdNode nd = tree.node(id);  // BFS ids coincide above the cut
    if (nd.depth == levels) {   // becomes a leaf spanning its old subtree
      nd.left = nd.right = kNoIdx;
      nd.col_begin = subtree_begin(id);
    }
    nodes[static_cast<size_t>(id)] = nd;
  }
  return NdTree(levels, std::move(nodes));
}

NdOrdering nested_dissection(const CsrMatrix& a, const NdOptions& opt) {
  const CsrMatrix sym = a.has_symmetric_pattern() ? a : a.symmetrized_pattern();
  return nested_dissection(Graph::from_matrix(sym), opt);
}

}  // namespace sptrsv
