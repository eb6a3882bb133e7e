#include <gtest/gtest.h>

#include "dist/solve_plan.hpp"
#include "sparse/paper_matrices.hpp"

namespace sptrsv {
namespace {

FactoredSystem make_system(int nd_levels = 3) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
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
    const auto below = plan.view(Triangle::kLower).dependents;
    for (Idx cp = 0; cp < plan.num_cols(); ++cp) {
      const Idx k = plan.cols()[static_cast<size_t>(cp)];
      // Filtered pattern must equal the full pattern (nothing dropped).
      EXPECT_EQ(below[static_cast<size_t>(cp)].size(),
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
    const auto& below = lower.dependents[static_cast<size_t>(cp)];
    EXPECT_EQ(t.root(), shape.diag_owner(k));
    // All members sit in the diagonal owner's process column.
    for (int p = 0; p < t.size(); ++p) {
      // reconstruct members through pos queries
    }
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

}  // namespace
}  // namespace sptrsv
