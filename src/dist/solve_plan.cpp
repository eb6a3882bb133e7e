#include "dist/solve_plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace sptrsv {

namespace {

/// Builds a member list: root first, remaining members ascending, deduped.
std::vector<int> make_members(int root, std::vector<int> others) {
  std::sort(others.begin(), others.end());
  others.erase(std::unique(others.begin(), others.end()), others.end());
  std::vector<int> out{root};
  for (const int r : others) {
    if (r != root) out.push_back(r);
  }
  return out;
}

Idx find_pos(std::span<const Idx> sorted, Idx v) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
  if (it == sorted.end() || *it != v) return kNoIdx;
  return static_cast<Idx>(it - sorted.begin());
}

/// Turns per-rank counts (at index rank + 1) into list offsets.
void prefix_sum(std::vector<Idx>& start) {
  for (size_t r = 1; r < start.size(); ++r) start[r] += start[r - 1];
}

/// Each grid rank's roles in the solve `v`: one pass over the reduction
/// trees and one over the broadcast trees, appending every target and
/// source to the lists of its tree's members in ascending position.
Solve2dPlan::Roles index_roles(const Solve2dPlan::View& v, const Grid2dShape& shape) {
  const auto nranks = static_cast<size_t>(shape.size());
  Solve2dPlan::Roles roles;
  roles.target_start.assign(nranks + 1, 0);
  roles.source_start.assign(nranks + 1, 0);
  roles.receives.assign(nranks, 0);
  roles.diag_solves.assign(nranks, 0);
  for (const auto& members : v.reduce_members) {
    for (const int r : members) ++roles.target_start[static_cast<size_t>(r) + 1];
  }
  for (const auto& members : v.bcast_members) {
    for (const int r : members) ++roles.source_start[static_cast<size_t>(r) + 1];
  }
  prefix_sum(roles.target_start);
  prefix_sum(roles.source_start);
  roles.targets.resize(static_cast<size_t>(roles.target_start.back()));
  roles.pending.resize(roles.targets.size());
  roles.children.resize(roles.targets.size());
  roles.sources.resize(static_cast<size_t>(roles.source_start.back()));

  // blocks[c]: the target's contributors stored in process column c.
  std::vector<Idx> blocks(static_cast<size_t>(shape.py), 0);
  std::vector<Idx> next(roles.target_start.begin(), roles.target_start.end() - 1);
  for (Idx tp = 0; tp < static_cast<Idx>(v.targets.size()); ++tp) {
    const Idx s = v.targets[static_cast<size_t>(tp)];
    const auto& contributors = v.contributors[static_cast<size_t>(tp)];
    for (const Idx c : contributors) ++blocks[static_cast<size_t>(shape.owner_col(c))];
    const TreeView t = v.reduce(tp);
    for (const int r : v.reduce_members[static_cast<size_t>(tp)]) {
      const Idx children = t.num_children(r);
      const Idx local = shape.owner_row(s) == shape.row_of(r)
                            ? blocks[static_cast<size_t>(shape.col_of(r))]
                            : 0;
      const auto at = static_cast<size_t>(next[static_cast<size_t>(r)]++);
      roles.targets[at] = tp;
      roles.pending[at] = local + children;
      roles.children[at] = children;
      roles.receives[static_cast<size_t>(r)] += children;
    }
    if (v.source_pos(s) != kNoIdx) ++roles.diag_solves[static_cast<size_t>(t.root())];
    for (const Idx c : contributors) blocks[static_cast<size_t>(shape.owner_col(c))] = 0;
  }
  next.assign(roles.source_start.begin(), roles.source_start.end() - 1);
  for (Idx sp = 0; sp < static_cast<Idx>(v.sources.size()); ++sp) {
    const auto& members = v.bcast_members[static_cast<size_t>(sp)];
    for (size_t q = 0; q < members.size(); ++q) {
      const auto r = static_cast<size_t>(members[q]);
      roles.sources[static_cast<size_t>(next[r]++)] = sp;
      if (q > 0) ++roles.receives[r];  // members[0] is the root
    }
  }
  return roles;
}

}  // namespace

Idx Solve2dPlan::View::target_pos(Idx s) const { return find_pos(targets, s); }
Idx Solve2dPlan::View::source_pos(Idx s) const { return find_pos(sources, s); }

Solve2dPlan::View Solve2dPlan::view(Triangle tri) const {
  if (tri == Triangle::kLower) {
    return {.targets = rows_, .sources = cols_, .seeded_sources = {},
            .contributors = row_pattern_, .block_index = row_pattern_index_,
            .dependents = below_, .reduce_members = l_reduce_,
            .bcast_members = l_bcast_, .kind = kind_};
  }
  return {.targets = cols_, .sources = rows_, .seeded_sources = external_rows_,
          .contributors = below_, .block_index = below_index_,
          .dependents = row_pattern_, .reduce_members = u_reduce_,
          .bcast_members = u_bcast_, .kind = kind_};
}

const Solve2dPlan::Roles& Solve2dPlan::roles(Triangle tri) const {
  if (roles_.empty()) {
    throw std::logic_error("Solve2dPlan: built without its rank roles (index_ranks)");
  }
  return roles_[static_cast<size_t>(tri)];
}

Solve2dPlan Solve2dPlan::build(const SupernodalLU& lu, Grid2dShape shape, TreeKind kind,
                               std::vector<Idx> cols, std::vector<Idx> extra_rows,
                               bool index_ranks) {
  if (!std::is_sorted(cols.begin(), cols.end()) ||
      std::adjacent_find(cols.begin(), cols.end()) != cols.end()) {
    throw std::invalid_argument("Solve2dPlan: cols must be sorted unique");
  }
  Solve2dPlan p;
  p.lu_ = &lu;
  p.shape_ = shape;
  p.kind_ = kind;
  p.cols_ = std::move(cols);

  // rows = cols ∪ extra_rows (sorted unique).
  p.rows_ = p.cols_;
  p.rows_.insert(p.rows_.end(), extra_rows.begin(), extra_rows.end());
  std::sort(p.rows_.begin(), p.rows_.end());
  p.rows_.erase(std::unique(p.rows_.begin(), p.rows_.end()), p.rows_.end());
  for (const Idx r : p.rows_) {
    if (find_pos(p.cols_, r) == kNoIdx) p.external_rows_.push_back(r);
  }

  const Idx nc = p.num_cols();
  const Idx nr = p.num_rows();
  p.below_.resize(static_cast<size_t>(nc));
  p.below_index_.resize(static_cast<size_t>(nc));
  p.row_pattern_.resize(static_cast<size_t>(nr));
  p.row_pattern_index_.resize(static_cast<size_t>(nr));

  // Filter each column's pattern to the tracked rows; record row patterns.
  for (Idx cp = 0; cp < nc; ++cp) {
    const Idx k = p.cols_[static_cast<size_t>(cp)];
    const auto& full = lu.sym.below[static_cast<size_t>(k)];
    for (size_t bi = 0; bi < full.size(); ++bi) {
      const Idx i = full[bi];
      const Idx rp = find_pos(p.rows_, i);
      if (rp == kNoIdx) continue;  // outside this solve's scope
      p.below_[static_cast<size_t>(cp)].push_back(i);
      p.below_index_[static_cast<size_t>(cp)].push_back(static_cast<Idx>(bi));
      p.row_pattern_[static_cast<size_t>(rp)].push_back(k);
      p.row_pattern_index_[static_cast<size_t>(rp)].push_back(static_cast<Idx>(bi));
    }
  }

  // Communication trees. Roots are the diagonal owners; members are the
  // grid ranks holding blocks of the column (L broadcast / U reduction) or
  // of the row (L reduction / U broadcast).
  p.l_bcast_.resize(static_cast<size_t>(nc));
  p.u_reduce_.resize(static_cast<size_t>(nc));
  p.l_reduce_.resize(static_cast<size_t>(nr));
  p.u_bcast_.resize(static_cast<size_t>(nr));
  for (Idx cp = 0; cp < nc; ++cp) {
    const Idx k = p.cols_[static_cast<size_t>(cp)];
    std::vector<int> bcast, ureduce;
    for (const Idx i : p.below_[static_cast<size_t>(cp)]) {
      bcast.push_back(shape.rank_of(shape.owner_row(i), shape.owner_col(k)));
      ureduce.push_back(shape.rank_of(shape.owner_row(k), shape.owner_col(i)));
    }
    p.l_bcast_[static_cast<size_t>(cp)] =
        make_members(shape.diag_owner(k), std::move(bcast));
    p.u_reduce_[static_cast<size_t>(cp)] =
        make_members(shape.diag_owner(k), std::move(ureduce));
  }
  for (Idx rp = 0; rp < nr; ++rp) {
    const Idx i = p.rows_[static_cast<size_t>(rp)];
    std::vector<int> lreduce, ubcast;
    for (const Idx k : p.row_pattern_[static_cast<size_t>(rp)]) {
      lreduce.push_back(shape.rank_of(shape.owner_row(i), shape.owner_col(k)));
      ubcast.push_back(shape.rank_of(shape.owner_row(k), shape.owner_col(i)));
    }
    p.l_reduce_[static_cast<size_t>(rp)] =
        make_members(shape.diag_owner(i), std::move(lreduce));
    p.u_bcast_[static_cast<size_t>(rp)] =
        make_members(shape.diag_owner(i), std::move(ubcast));
  }
  if (index_ranks) {
    for (const Triangle tri : {Triangle::kLower, Triangle::kUpper}) {
      p.roles_.push_back(index_roles(p.view(tri), shape));
    }
  }
  return p;
}

std::pair<Idx, Idx> node_supernode_range(const SymbolicStructure& sym, const NdTree& tree,
                                         Idx node) {
  const auto& nd = tree.node(node);
  if (nd.col_begin == nd.col_end) return {0, 0};  // empty node
  const Idx first = sym.part.col_to_sn[static_cast<size_t>(nd.col_begin)];
  const Idx last = sym.part.col_to_sn[static_cast<size_t>(nd.col_end - 1)] + 1;
  // Forced breaks at node boundaries guarantee clean alignment.
  if (sym.part.first_col(first) != nd.col_begin ||
      sym.part.first_col(last - 1) + sym.part.width(last - 1) != nd.col_end) {
    throw std::logic_error("node_supernode_range: supernodes straddle node boundary");
  }
  return {first, last};
}

namespace {

/// All supernodes of the given tree nodes, ascending.
std::vector<Idx> supernodes_of_nodes(const SymbolicStructure& sym, const NdTree& tree,
                                     std::span<const Idx> nodes) {
  std::vector<Idx> out;
  for (const Idx node : nodes) {
    const auto [lo, hi] = node_supernode_range(sym, tree, node);
    for (Idx k = lo; k < hi; ++k) out.push_back(k);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Solve2dPlan make_grid_plan(const SupernodalLU& lu, const NdTree& tree, Idx leaf,
                           Grid2dShape shape, TreeKind kind, bool index_ranks) {
  const auto path = tree.path_to_root(tree.leaf_node_id(leaf));
  std::vector<Idx> snodes = supernodes_of_nodes(lu.sym, tree, path);
  return Solve2dPlan::build(lu, shape, kind, std::move(snodes), {}, index_ranks);
}

Solve2dPlan make_node_plan(const SupernodalLU& lu, const NdTree& tree, Idx node,
                           Grid2dShape shape, TreeKind kind) {
  std::vector<Idx> own{node};
  std::vector<Idx> ancestors;
  for (Idx v = tree.node(node).parent; v != kNoIdx; v = tree.node(v).parent) {
    ancestors.push_back(v);
  }
  return Solve2dPlan::build(lu, shape, kind, supernodes_of_nodes(lu.sym, tree, own),
                            supernodes_of_nodes(lu.sym, tree, ancestors));
}

}  // namespace sptrsv
