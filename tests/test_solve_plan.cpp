#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dist/solve_plan.hpp"
#include "sparse/paper_matrices.hpp"

namespace sptrsv {
namespace {

FactoredSystem make_system(int nd_levels = 3,
                           PaperMatrix pm = PaperMatrix::kS2D9pt2048) {
  const CsrMatrix a = make_paper_matrix(pm, MatrixScale::kTiny);
  return analyze_and_factor(a, nd_levels);
}

TEST(Layout, OwnerArithmetic) {
  const Grid2dShape g{3, 4};
  EXPECT_EQ(g.size(), 12);
  EXPECT_EQ(g.rank_of(2, 3), 11);
  EXPECT_EQ(g.row_of(11), 2);
  EXPECT_EQ(g.col_of(11), 3);
  EXPECT_EQ(g.owner(7, 9), g.rank_of(7 % 3, 9 % 4));
  EXPECT_EQ(g.diag_owner(5), g.rank_of(2, 1));
}

TEST(Layout, Grid3dDecomposition) {
  const Grid3dShape s{2, 3, 4};
  EXPECT_EQ(s.size(), 24);
  EXPECT_EQ(s.z_of(13), 2);
  EXPECT_EQ(s.grid_rank_of(13), 1);
  EXPECT_EQ(s.world_rank(2, 1), 13);
}

TEST(Layout, ReplicatedNodesAlignAcrossGrids) {
  // The same global supernode id maps to the same (x,y) in every grid —
  // the alignment the sparse allreduce depends on.
  const Grid2dShape g{2, 3};
  for (Idx k = 0; k < 20; ++k) {
    EXPECT_EQ(g.diag_owner(k), g.rank_of(static_cast<int>(k % 2), static_cast<int>(k % 3)));
  }
}

TEST(TreeViewTest, MatchesCommTree) {
  // TreeView over a member list must agree with the reference CommTree.
  const std::vector<int> members{4, 0, 2, 7, 9, 11};  // root=4 first, rest asc
  for (const TreeKind kind : {TreeKind::kBinary, TreeKind::kFlat}) {
    const TreeView v({members.data(), members.size()}, kind);
    const CommTree ref = CommTree::build(kind, members, 4);
    for (const int m : members) {
      EXPECT_EQ(v.parent_of(m), ref.parent_of(m)) << "member " << m;
      std::vector<int> vc;
      v.for_each_child(m, [&](int c) { vc.push_back(c); });
      const auto rc = ref.children_of(m);
      ASSERT_EQ(vc.size(), rc.size());
      for (size_t i = 0; i < vc.size(); ++i) EXPECT_EQ(vc[i], rc[i]);
    }
    EXPECT_FALSE(v.contains(5));
    EXPECT_EQ(v.pos_of(4), 0);
  }
}

TEST(NodeSupernodeRange, CoversTreePartition) {
  const FactoredSystem fs = make_system();
  std::vector<bool> covered(static_cast<size_t>(fs.lu.num_supernodes()), false);
  for (Idx node = 0; node < fs.tree.num_nodes(); ++node) {
    const auto [lo, hi] = node_supernode_range(fs.lu.sym, fs.tree, node);
    for (Idx k = lo; k < hi; ++k) {
      EXPECT_FALSE(covered[static_cast<size_t>(k)]) << "supernode in two nodes";
      covered[static_cast<size_t>(k)] = true;
    }
  }
  for (const bool c : covered) EXPECT_TRUE(c);
}

TEST(CoarsenTree, LeafRangesSpanSubtrees) {
  const FactoredSystem fs = make_system(3);
  for (int levels = 0; levels <= 3; ++levels) {
    const NdTree c = coarsen_nd_tree(fs.tree, levels);
    EXPECT_EQ(c.levels(), levels);
    EXPECT_TRUE(c.check_invariants(fs.lu.n()));
  }
  EXPECT_THROW(coarsen_nd_tree(fs.tree, 4), std::invalid_argument);
}

TEST(GridPlan, ColsAreLeafPlusAncestors) {
  const FactoredSystem fs = make_system(2);
  const Grid2dShape shape{2, 2};
  for (Idx leaf = 0; leaf < fs.tree.num_leaves(); ++leaf) {
    const Solve2dPlan plan =
        make_grid_plan(fs.lu, fs.tree, leaf, shape, TreeKind::kBinary);
    EXPECT_TRUE(plan.external_rows().empty());
    // Every column's tree node is on the leaf's root path.
    const auto path = fs.tree.path_to_root(fs.tree.leaf_node_id(leaf));
    for (const Idx k : plan.cols()) {
      const Idx node =
          fs.tree.node_of_column(fs.lu.sym.part.first_col(k));
      EXPECT_NE(std::find(path.begin(), path.end(), node), path.end());
    }
  }
}

TEST(GridPlan, BelowPatternStaysInsidePlan) {
  // The ND path property: fill from a grid's index set never leaves it.
  const FactoredSystem fs = make_system(3);
  const Grid2dShape shape{2, 3};
  for (Idx leaf = 0; leaf < fs.tree.num_leaves(); ++leaf) {
    const Solve2dPlan plan =
        make_grid_plan(fs.lu, fs.tree, leaf, shape, TreeKind::kBinary);
    const Solve2dPlan::View lower = plan.view(Triangle::kLower);
    for (Idx cp = 0; cp < plan.num_cols(); ++cp) {
      const Idx k = plan.cols()[static_cast<size_t>(cp)];
      // Filtered pattern must equal the full pattern (nothing dropped).
      EXPECT_EQ(lower.dependents(cp).size(),
                fs.lu.sym.below[static_cast<size_t>(k)].size())
          << "block outside grid index set: leaf " << leaf << " supernode " << k;
    }
  }
}

TEST(NodePlan, ExternalRowsAreAncestors) {
  const FactoredSystem fs = make_system(2);
  const Grid2dShape shape{2, 2};
  const Idx leaf3 = fs.tree.leaf_node_id(3);
  const Solve2dPlan plan = make_node_plan(fs.lu, fs.tree, leaf3, shape, TreeKind::kBinary);
  const auto path = fs.tree.path_to_root(leaf3);
  for (const Idx i : plan.external_rows()) {
    const Idx node = fs.tree.node_of_column(fs.lu.sym.part.first_col(i));
    EXPECT_NE(node, leaf3);
    EXPECT_NE(std::find(path.begin(), path.end(), node), path.end());
  }
}

TEST(Plan, TreeMembersOwnBlocks) {
  const FactoredSystem fs = make_system(2);
  const Grid2dShape shape{2, 3};
  const Solve2dPlan plan = make_grid_plan(fs.lu, fs.tree, 0, shape, TreeKind::kBinary);
  const Solve2dPlan::View lower = plan.view(Triangle::kLower);
  for (Idx cp = 0; cp < plan.num_cols(); ++cp) {
    const Idx k = plan.cols()[static_cast<size_t>(cp)];
    const TreeView t = lower.bcast(cp);
    const auto below = lower.dependents(cp);
    EXPECT_EQ(t.root(), shape.diag_owner(k));
    Idx members_with_blocks = 0;
    for (const Idx i : below) {
      if (t.contains(shape.rank_of(shape.owner_row(i), shape.owner_col(k)))) {
        ++members_with_blocks;
      }
    }
    EXPECT_EQ(members_with_blocks, static_cast<Idx>(below.size()));
  }
}

TEST(Plan, BaselineBuildsMoreTreesThanProposed) {
  // The paper's §3.3 remark: the baseline needs broadcast/reduction trees
  // per (row/column, tree-node) pair — "three broadcast and reduction
  // trees" for the example — while the proposed algorithm needs exactly
  // one pair per row/column of the single 2D matrix L^z.
  const FactoredSystem fs = make_system(2);
  const Grid2dShape shape{2, 3};

  // Proposed: one plan per grid; count (column bcast + row reduce) lists.
  size_t proposed_trees = 0;
  for (Idx z = 0; z < fs.tree.num_leaves(); ++z) {
    const Solve2dPlan p = make_grid_plan(fs.lu, fs.tree, z, shape, TreeKind::kBinary);
    proposed_trees += static_cast<size_t>(p.num_cols() + p.num_rows());
  }
  // Baseline: one plan per tree node, again counting per-plan trees; rows
  // replicated as external targets get their own reduction trees at every
  // level — the blow-up the remark describes.
  size_t baseline_trees = 0;
  for (Idx node = 0; node < fs.tree.num_nodes(); ++node) {
    const Solve2dPlan p = make_node_plan(fs.lu, fs.tree, node, shape, TreeKind::kBinary);
    // The baseline runs each node's solve once per sharing grid... the
    // solve itself runs on one grid, but every replicated ancestor row has
    // a tree in every node plan below it.
    baseline_trees += static_cast<size_t>(p.num_cols() + p.num_rows());
  }
  EXPECT_GT(baseline_trees, proposed_trees / static_cast<size_t>(fs.tree.num_leaves()));
  // Per-grid comparison: grid 0's proposed plan vs the plans its own path
  // nodes need (leaf + ancestors): the baseline's tree count strictly
  // exceeds the proposed one because ancestor rows repeat per level.
  size_t baseline_grid0 = 0;
  for (const Idx node : fs.tree.path_to_root(fs.tree.leaf_node_id(0))) {
    const Solve2dPlan p = make_node_plan(fs.lu, fs.tree, node, shape, TreeKind::kBinary);
    baseline_grid0 += static_cast<size_t>(p.num_cols() + p.num_rows());
  }
  const Solve2dPlan g0 = make_grid_plan(fs.lu, fs.tree, 0, shape, TreeKind::kBinary);
  EXPECT_GT(baseline_grid0, static_cast<size_t>(g0.num_cols() + g0.num_rows()));
}

TEST(Plan, RejectsUnsortedCols) {
  const FactoredSystem fs = make_system(1);
  EXPECT_THROW(
      Solve2dPlan::build(fs.lu, {2, 2}, TreeKind::kBinary, {3, 1, 2}, {}),
      std::invalid_argument);
}

TEST(Plan, RejectsOutOfRangeSupernode) {
  const FactoredSystem fs = make_system(1);
  const Idx nsup = fs.lu.num_supernodes();
  const auto expect_rejected = [&](std::vector<Idx> cols, std::vector<Idx> extra_rows,
                                   Idx bad) {
    try {
      Solve2dPlan::build(fs.lu, {2, 2}, TreeKind::kBinary, cols, extra_rows);
      ADD_FAILURE() << "accepted supernode " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("supernode " + std::to_string(bad) + ","),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected({-1, 0}, {}, -1);
  expect_rejected({0, nsup}, {}, nsup);
  expect_rejected({0}, {-1}, -1);
  expect_rejected({0}, {nsup}, nsup);
  // The ends of the range itself are accepted.
  EXPECT_NO_THROW(
      Solve2dPlan::build(fs.lu, {2, 2}, TreeKind::kBinary, {0, nsup - 1}, {0, nsup - 1}));
}

/// A plan's lists built the plain way, one vector per list, sorting and
/// binary-searching as it goes: the reference the flat build must match.
struct RefPlan {
  std::vector<Idx> cols, rows, external_rows;
  // Per column: filtered pattern and block indices; per row: the columns
  // whose pattern holds it, with the same block indices.
  std::vector<std::vector<Idx>> below, below_index, row_pattern, row_pattern_index;
  std::vector<std::vector<int>> l_bcast, u_reduce, l_reduce, u_bcast;
};

std::vector<int> ref_members(int root, std::vector<int> others) {
  std::sort(others.begin(), others.end());
  others.erase(std::unique(others.begin(), others.end()), others.end());
  std::vector<int> out{root};
  for (const int r : others) {
    if (r != root) out.push_back(r);
  }
  return out;
}

Idx ref_pos(const std::vector<Idx>& sorted, Idx s) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), s);
  return it == sorted.end() || *it != s ? kNoIdx : static_cast<Idx>(it - sorted.begin());
}

RefPlan ref_build(const SupernodalLU& lu, const Grid2dShape& shape, std::vector<Idx> cols,
                  const std::vector<Idx>& extra_rows) {
  RefPlan p;
  p.cols = std::move(cols);
  p.rows = p.cols;
  p.rows.insert(p.rows.end(), extra_rows.begin(), extra_rows.end());
  std::sort(p.rows.begin(), p.rows.end());
  p.rows.erase(std::unique(p.rows.begin(), p.rows.end()), p.rows.end());
  for (const Idx r : p.rows) {
    if (ref_pos(p.cols, r) == kNoIdx) p.external_rows.push_back(r);
  }
  const size_t nc = p.cols.size();
  const size_t nr = p.rows.size();
  p.below.resize(nc);
  p.below_index.resize(nc);
  p.row_pattern.resize(nr);
  p.row_pattern_index.resize(nr);
  for (size_t cp = 0; cp < nc; ++cp) {
    const Idx k = p.cols[cp];
    const auto& full = lu.sym.below[static_cast<size_t>(k)];
    for (size_t bi = 0; bi < full.size(); ++bi) {
      const Idx rp = ref_pos(p.rows, full[bi]);
      if (rp == kNoIdx) continue;
      p.below[cp].push_back(full[bi]);
      p.below_index[cp].push_back(static_cast<Idx>(bi));
      p.row_pattern[static_cast<size_t>(rp)].push_back(k);
      p.row_pattern_index[static_cast<size_t>(rp)].push_back(static_cast<Idx>(bi));
    }
  }
  for (size_t cp = 0; cp < nc; ++cp) {
    const Idx k = p.cols[cp];
    std::vector<int> bcast, ureduce;
    for (const Idx i : p.below[cp]) {
      bcast.push_back(shape.owner(i, k));
      ureduce.push_back(shape.owner(k, i));
    }
    p.l_bcast.push_back(ref_members(shape.diag_owner(k), bcast));
    p.u_reduce.push_back(ref_members(shape.diag_owner(k), ureduce));
  }
  for (size_t rp = 0; rp < nr; ++rp) {
    const Idx i = p.rows[rp];
    std::vector<int> lreduce, ubcast;
    for (const Idx k : p.row_pattern[rp]) {
      lreduce.push_back(shape.owner(i, k));
      ubcast.push_back(shape.owner(k, i));
    }
    p.l_reduce.push_back(ref_members(shape.diag_owner(i), lreduce));
    p.u_bcast.push_back(ref_members(shape.diag_owner(i), ubcast));
  }
  return p;
}

template <class T>
std::vector<T> to_vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

/// Compares every list `(v.*lists)(j)` with want[j].
template <class T>
void expect_lists_eq(const Solve2dPlan::View& v,
                     std::span<const T> (Solve2dPlan::View::*lists)(Idx) const,
                     const std::vector<std::vector<T>>& want, const char* what) {
  for (size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(to_vec((v.*lists)(static_cast<Idx>(j))), want[j]) << what << " list " << j;
  }
}

/// Compares every list of both views, every position lookup and both
/// triangles' rank roles with the reference. The roles are found by
/// scanning each rank's trees one by one.
void expect_matches_reference(const Solve2dPlan& plan, const RefPlan& ref) {
  EXPECT_EQ(to_vec(plan.cols()), ref.cols);
  EXPECT_EQ(to_vec(plan.rows()), ref.rows);
  EXPECT_EQ(to_vec(plan.external_rows()), ref.external_rows);
  const Grid2dShape& shape = plan.shape();
  const Idx nsup = plan.lu().num_supernodes();
  for (const Triangle tri : {Triangle::kLower, Triangle::kUpper}) {
    SCOPED_TRACE(tri == Triangle::kLower ? "L" : "U");
    const bool lower = tri == Triangle::kLower;
    const auto& targets = lower ? ref.rows : ref.cols;
    const auto& sources = lower ? ref.cols : ref.rows;
    const auto& contributors = lower ? ref.row_pattern : ref.below;
    const auto& reduce = lower ? ref.l_reduce : ref.u_reduce;
    const auto& bcast = lower ? ref.l_bcast : ref.u_bcast;
    const Solve2dPlan::View v = plan.view(tri);
    ASSERT_EQ(to_vec(v.targets()), targets);
    ASSERT_EQ(to_vec(v.sources()), sources);
    EXPECT_EQ(to_vec(v.seeded_sources()), lower ? std::vector<Idx>{} : ref.external_rows);
    using View = Solve2dPlan::View;
    expect_lists_eq(v, &View::contributors, contributors, "contributors");
    expect_lists_eq(v, &View::block_index,
                    lower ? ref.row_pattern_index : ref.below_index, "block_index");
    expect_lists_eq(v, &View::dependents, lower ? ref.below : ref.row_pattern,
                    "dependents");
    expect_lists_eq(v, &View::reduce_members, reduce, "reduce_members");
    expect_lists_eq(v, &View::bcast_members, bcast, "bcast_members");
    for (Idx s = -1; s <= nsup; ++s) {
      EXPECT_EQ(v.target_pos(s), ref_pos(targets, s)) << "supernode " << s;
      EXPECT_EQ(v.source_pos(s), ref_pos(sources, s)) << "supernode " << s;
    }

    const Solve2dPlan::Roles& roles = plan.roles(tri);
    for (int r = 0; r < shape.size(); ++r) {
      std::vector<Idx> my_targets, pending, children, my_sources;
      Idx receives = 0;
      Idx diag_solves = 0;
      for (size_t tp = 0; tp < targets.size(); ++tp) {
        const TreeView t(reduce[tp], plan.kind());
        if (!t.contains(r)) continue;
        const Idx s = targets[tp];
        Idx local = 0;
        for (const Idx c : contributors[tp]) {
          if (shape.owner(s, c) == r) ++local;
        }
        my_targets.push_back(static_cast<Idx>(tp));
        children.push_back(t.num_children(r));
        pending.push_back(local + t.num_children(r));
        receives += t.num_children(r);
        if (t.root() == r && ref_pos(sources, s) != kNoIdx) ++diag_solves;
      }
      for (size_t sp = 0; sp < sources.size(); ++sp) {
        const TreeView t(bcast[sp], plan.kind());
        if (!t.contains(r)) continue;
        my_sources.push_back(static_cast<Idx>(sp));
        if (t.root() != r) ++receives;
      }
      EXPECT_EQ(to_vec(roles.targets_of(r)), my_targets) << "rank " << r;
      EXPECT_EQ(to_vec(roles.pending_of(r)), pending) << "rank " << r;
      EXPECT_EQ(to_vec(roles.children_of(r)), children) << "rank " << r;
      EXPECT_EQ(to_vec(roles.sources_of(r)), my_sources) << "rank " << r;
      EXPECT_EQ(roles.receives[static_cast<size_t>(r)], receives) << "rank " << r;
      EXPECT_EQ(roles.diag_solves[static_cast<size_t>(r)], diag_solves) << "rank " << r;
    }
  }
}

std::vector<Idx> supernodes_of(const FactoredSystem& fs, std::span<const Idx> nodes) {
  std::vector<Idx> out;
  for (const Idx node : nodes) {
    const auto [lo, hi] = node_supernode_range(fs.lu.sym, fs.tree, node);
    for (Idx k = lo; k < hi; ++k) out.push_back(k);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Plan, MatchesReferenceBuilder) {
  for (const PaperMatrix pm : {PaperMatrix::kS2D9pt2048, PaperMatrix::kGa19As19H42}) {
    const FactoredSystem fs = make_system(2, pm);
    for (const Grid2dShape shape :
         {Grid2dShape{1, 1}, Grid2dShape{2, 3}, Grid2dShape{4, 1}, Grid2dShape{1, 4}}) {
      for (const TreeKind kind : {TreeKind::kBinary, TreeKind::kFlat}) {
        SCOPED_TRACE(paper_matrix_name(pm) + " " + std::to_string(shape.px) + "x" +
                     std::to_string(shape.py) +
                     (kind == TreeKind::kBinary ? " binary" : " flat"));
        for (Idx leaf = 0; leaf < fs.tree.num_leaves(); ++leaf) {
          SCOPED_TRACE("grid plan of leaf " + std::to_string(leaf));
          const auto path = fs.tree.path_to_root(fs.tree.leaf_node_id(leaf));
          expect_matches_reference(make_grid_plan(fs.lu, fs.tree, leaf, shape, kind),
                                   ref_build(fs.lu, shape, supernodes_of(fs, path), {}));
        }
        for (Idx node = 0; node < fs.tree.num_nodes(); ++node) {
          SCOPED_TRACE("node plan of node " + std::to_string(node));
          const std::vector<Idx> own{node};
          std::vector<Idx> ancestors = fs.tree.path_to_root(node);
          ancestors.erase(ancestors.begin());
          expect_matches_reference(make_node_plan(fs.lu, fs.tree, node, shape, kind),
                                   ref_build(fs.lu, shape, supernodes_of(fs, own),
                                             supernodes_of(fs, ancestors)));
        }
      }
    }
  }
}

TEST(Plan, DropsRowsOutsideItsScope) {
  // A leaf's supernodes alone, with no extra rows, track none of the
  // ancestor rows its pattern reaches, so the build drops all of them;
  // with the root's rows as extra rows it still drops the parent's.
  const FactoredSystem fs = make_system(2);
  const Idx leaf = fs.tree.leaf_node_id(0);
  const std::vector<Idx> own{leaf};
  const std::vector<Idx> up{fs.tree.path_to_root(leaf).back()};
  const std::vector<Idx> cols = supernodes_of(fs, own);
  size_t full_blocks = 0;  // every block of the leaf's columns
  size_t leaf_blocks = 0;  // those in the leaf's own rows
  for (const Idx k : cols) {
    for (const Idx i : fs.lu.sym.below[static_cast<size_t>(k)]) {
      ++full_blocks;
      if (std::binary_search(cols.begin(), cols.end(), i)) ++leaf_blocks;
    }
  }
  for (const Grid2dShape shape : {Grid2dShape{1, 1}, Grid2dShape{2, 3}}) {
    for (const std::vector<Idx>& extra : {std::vector<Idx>{}, supernodes_of(fs, up)}) {
      const Solve2dPlan plan =
          Solve2dPlan::build(fs.lu, shape, TreeKind::kBinary, cols, extra);
      size_t kept = 0;
      for (Idx cp = 0; cp < plan.num_cols(); ++cp) {
        kept += plan.view(Triangle::kLower).dependents(cp).size();
      }
      EXPECT_LT(kept, full_blocks) << "no block row was dropped";
      if (extra.empty()) {
        EXPECT_EQ(kept, leaf_blocks);
      }
      expect_matches_reference(plan, ref_build(fs.lu, shape, cols, extra));
    }
  }
}

}  // namespace
}  // namespace sptrsv
