#include "dist/solve_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sptrsv {

namespace {

/// Turns per-list counts (at index list + 1) into list offsets.
void prefix_sum(std::vector<Idx>& start) {
  for (size_t r = 1; r < start.size(); ++r) start[r] += start[r - 1];
}

/// The member lists of two tree families at once, list j for supernode
/// s = ids[j]: s's diagonal owner (the root) first, then the other owners
/// of the blocks (s, e) (`in_row`) or (e, s) (`in_col`) over the entries e
/// of pattern list j, ascending, each once. `Pattern` and `Members` are the
/// plan's private list storage.
template <class Pattern, class Members>
void build_members(std::span<const Idx> ids, const Pattern& pattern,
                   const Grid2dShape& shape, Members& in_row, Members& in_col) {
  // stamp[r] == j marks rank r as already in list j.
  std::vector<Idx> row_stamp(static_cast<size_t>(shape.size()), kNoIdx);
  std::vector<Idx> col_stamp(row_stamp);
  const auto add = [](Members& m, std::vector<Idx>& stamp, Idx j, int r) {
    if (stamp[static_cast<size_t>(r)] == j) return;
    stamp[static_cast<size_t>(r)] = j;
    m.ranks.push_back(r);
  };
  // Ends the list being walked: its members after the root ascend.
  const auto close = [](Members& m) {
    std::sort(m.ranks.begin() + m.start.back() + 1, m.ranks.end());
    m.start.push_back(static_cast<Idx>(m.ranks.size()));
  };
  for (Members* m : {&in_row, &in_col}) {
    m->start.assign(1, 0);
    m->start.reserve(ids.size() + 1);
    m->ranks.reserve(ids.size());
  }
  for (Idx j = 0; j < static_cast<Idx>(ids.size()); ++j) {
    const Idx s = ids[static_cast<size_t>(j)];
    const int srow = shape.owner_row(s);
    const int scol = shape.owner_col(s);
    const int root = shape.rank_of(srow, scol);
    row_stamp[static_cast<size_t>(root)] = j;
    col_stamp[static_cast<size_t>(root)] = j;
    in_row.ranks.push_back(root);
    in_col.ranks.push_back(root);
    const auto first = static_cast<size_t>(pattern.start[static_cast<size_t>(j)]);
    const auto last = static_cast<size_t>(pattern.start[static_cast<size_t>(j) + 1]);
    for (size_t q = first; q < last; ++q) {
      const Idx e = pattern.ids[q];
      add(in_row, row_stamp, j, shape.rank_of(srow, shape.owner_col(e)));
      add(in_col, col_stamp, j, shape.rank_of(shape.owner_row(e), scol));
    }
    close(in_row);
    close(in_col);
  }
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
  const auto ntargets = static_cast<Idx>(v.targets().size());
  const auto nsources = static_cast<Idx>(v.sources().size());
  for (Idx tp = 0; tp < ntargets; ++tp) {
    for (const int r : v.reduce_members(tp)) {
      ++roles.target_start[static_cast<size_t>(r) + 1];
    }
  }
  for (Idx sp = 0; sp < nsources; ++sp) {
    for (const int r : v.bcast_members(sp)) {
      ++roles.source_start[static_cast<size_t>(r) + 1];
    }
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
  for (Idx tp = 0; tp < ntargets; ++tp) {
    const Idx s = v.targets()[static_cast<size_t>(tp)];
    const auto contributors = v.contributors(tp);
    for (const Idx c : contributors) ++blocks[static_cast<size_t>(shape.owner_col(c))];
    const TreeView t = v.reduce(tp);
    for (const int r : v.reduce_members(tp)) {
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
  for (Idx sp = 0; sp < nsources; ++sp) {
    const auto members = v.bcast_members(sp);
    for (size_t q = 0; q < members.size(); ++q) {
      const auto r = static_cast<size_t>(members[q]);
      roles.sources[static_cast<size_t>(next[r]++)] = sp;
      if (q > 0) ++roles.receives[r];  // members[0] is the root
    }
  }
  return roles;
}

}  // namespace

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
  const Idx nsup = lu.num_supernodes();
  const auto check_ids = [nsup](const std::vector<Idx>& ids, const char* name) {
    for (const Idx s : ids) {
      if (s < 0 || s >= nsup) {
        throw std::invalid_argument("Solve2dPlan: " + std::string(name) +
                                    " holds supernode " + std::to_string(s) +
                                    ", outside [0, " + std::to_string(nsup) + ")");
      }
    }
  };
  check_ids(cols, "cols");
  check_ids(extra_rows, "extra_rows");
  Solve2dPlan p;
  p.lu_ = &lu;
  p.shape_ = shape;
  p.kind_ = kind;
  p.cols_ = std::move(cols);

  const Idx nc = p.num_cols();
  p.col_pos_.assign(static_cast<size_t>(nsup), kNoIdx);
  for (Idx cp = 0; cp < nc; ++cp) {
    p.col_pos_[static_cast<size_t>(p.cols_[static_cast<size_t>(cp)])] = cp;
  }
  // rows = cols ∪ extra_rows, ascending: mark them by id, then number them.
  p.row_pos_.assign(static_cast<size_t>(nsup), kNoIdx);
  p.rows_.reserve(p.cols_.size() + extra_rows.size());
  for (const Idx s : p.cols_) p.row_pos_[static_cast<size_t>(s)] = 0;
  for (const Idx s : extra_rows) p.row_pos_[static_cast<size_t>(s)] = 0;
  for (Idx s = 0; s < nsup; ++s) {
    Idx& rp = p.row_pos_[static_cast<size_t>(s)];
    if (rp == kNoIdx) continue;
    rp = p.num_rows();
    p.rows_.push_back(s);
    if (p.col_pos_[static_cast<size_t>(s)] == kNoIdx) p.external_rows_.push_back(s);
  }
  const Idx nr = p.num_rows();

  // Filter each column's pattern to the tracked rows and record the row
  // patterns, walking every column's blocks twice: once to count each
  // list, once to fill it.
  const auto for_each_block = [&](auto&& fn) {
    for (Idx cp = 0; cp < nc; ++cp) {
      const Idx k = p.cols_[static_cast<size_t>(cp)];
      const auto& full = lu.sym.below[static_cast<size_t>(k)];
      for (size_t bi = 0; bi < full.size(); ++bi) {
        const Idx rp = p.row_pos_[static_cast<size_t>(full[bi])];
        if (rp == kNoIdx) continue;  // outside this solve's scope
        fn(cp, k, rp, full[bi], static_cast<Idx>(bi));
      }
    }
  };
  Pattern& below = p.below_;
  Pattern& rowp = p.row_pattern_;
  below.start.assign(static_cast<size_t>(nc) + 1, 0);
  rowp.start.assign(static_cast<size_t>(nr) + 1, 0);
  for_each_block([&](Idx cp, Idx, Idx rp, Idx, Idx) {
    ++below.start[static_cast<size_t>(cp) + 1];
    ++rowp.start[static_cast<size_t>(rp) + 1];
  });
  prefix_sum(below.start);
  prefix_sum(rowp.start);
  const auto nblocks = static_cast<size_t>(below.start.back());
  below.ids.resize(nblocks);
  below.block_index.resize(nblocks);
  rowp.ids.resize(nblocks);
  rowp.block_index.resize(nblocks);
  std::vector<Idx> next_in_row(rowp.start.begin(), rowp.start.end() - 1);
  size_t at = 0;
  for_each_block([&](Idx, Idx k, Idx rp, Idx i, Idx bi) {
    below.ids[at] = i;
    below.block_index[at] = bi;
    ++at;
    const auto r = static_cast<size_t>(next_in_row[static_cast<size_t>(rp)]++);
    rowp.ids[r] = k;
    rowp.block_index[r] = bi;
  });

  // Communication trees. Roots are the diagonal owners; members are the
  // grid ranks holding blocks of the column (L broadcast / U reduction) or
  // of the row (L reduction / U broadcast).
  build_members(p.cols_, below, shape, p.u_reduce_, p.l_bcast_);
  build_members(p.rows_, rowp, shape, p.l_reduce_, p.u_bcast_);
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
