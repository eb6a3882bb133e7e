#include <gtest/gtest.h>

#include <algorithm>

#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"

namespace sptrsv {
namespace {

TEST(Bisect, NoEdgesBetweenParts) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = Graph::from_matrix(make_random_symmetric(120, 3.0, seed));
    const auto label = bisect_graph(g);
    for (Idx v = 0; v < g.num_vertices(); ++v) {
      if (label[static_cast<size_t>(v)] == 2) continue;
      for (const Idx u : g.neighbors(v)) {
        if (label[static_cast<size_t>(u)] == 2) continue;
        EXPECT_EQ(label[static_cast<size_t>(v)], label[static_cast<size_t>(u)])
            << "A-B edge " << v << "-" << u << " seed " << seed;
      }
    }
  }
}

TEST(Bisect, GridSeparatorIsSmall) {
  const Graph g = Graph::from_matrix(make_grid2d(16, 16, Stencil2d::kFivePoint));
  const auto label = bisect_graph(g);
  Idx counts[3] = {0, 0, 0};
  for (const auto l : label) ++counts[l];
  // A good 16x16 grid separator is O(16); allow slack but far below n.
  EXPECT_LE(counts[2], 48);
  EXPECT_GT(counts[0], 64);
  EXPECT_GT(counts[1], 64);
}

TEST(Bisect, SingleVertex) {
  const Graph g = Graph::from_raw(1, {0, 0}, {});
  const auto label = bisect_graph(g);
  EXPECT_EQ(label[0], 0);  // lone vertex goes to part A
}

class NdTest : public ::testing::TestWithParam<int> {};

TEST_P(NdTest, PermutationAndTreeInvariants) {
  const int levels = GetParam();
  const CsrMatrix a = make_grid2d(12, 12, Stencil2d::kNinePoint);
  NdOptions opt;
  opt.levels = levels;
  const NdOrdering nd = nested_dissection(a, opt);
  EXPECT_TRUE(is_permutation(nd.perm));
  EXPECT_EQ(nd.tree.levels(), levels);
  EXPECT_EQ(nd.tree.num_leaves(), Idx{1} << levels);
  EXPECT_EQ(nd.tree.num_nodes(), (Idx{1} << (levels + 1)) - 1);
  EXPECT_TRUE(nd.tree.check_invariants(a.rows()));
}

TEST_P(NdTest, SeparatorsActuallySeparate) {
  // In the permuted matrix, two columns living in disjoint subtrees of the
  // tracked tree must have no direct coupling.
  const int levels = GetParam();
  const CsrMatrix a = make_grid2d(12, 12, Stencil2d::kNinePoint);
  NdOptions opt;
  opt.levels = levels;
  const NdOrdering nd = nested_dissection(a, opt);
  const CsrMatrix p = a.permuted_symmetric(nd.perm);

  // node_of_column per column; two nodes are "related" if one is an
  // ancestor of the other.
  auto related = [&](Idx na, Idx nb) {
    for (Idx v = na; v != kNoIdx; v = nd.tree.node(v).parent) {
      if (v == nb) return true;
    }
    for (Idx v = nb; v != kNoIdx; v = nd.tree.node(v).parent) {
      if (v == na) return true;
    }
    return false;
  };
  std::vector<Idx> node_of(static_cast<size_t>(p.rows()));
  for (Idx c = 0; c < p.rows(); ++c) node_of[static_cast<size_t>(c)] = nd.tree.node_of_column(c);

  for (Idx r = 0; r < p.rows(); ++r) {
    for (const Idx c : p.row_cols(r)) {
      EXPECT_TRUE(related(node_of[static_cast<size_t>(r)], node_of[static_cast<size_t>(c)]))
          << "coupling across unrelated ND nodes: rows " << r << "," << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, NdTest, ::testing::Values(0, 1, 2, 3, 4));

TEST(Nd, LeafRangeIdentities) {
  const CsrMatrix a = make_grid2d(10, 10, Stencil2d::kFivePoint);
  NdOptions opt;
  opt.levels = 3;
  const NdOrdering nd = nested_dissection(a, opt);
  const auto& t = nd.tree;
  // Root spans all leaves.
  EXPECT_EQ(t.leaf_range(0), (std::pair<Idx, Idx>{0, 8}));
  // Each leaf spans itself.
  for (Idx l = 0; l < t.num_leaves(); ++l) {
    EXPECT_EQ(t.leaf_range(t.leaf_node_id(l)), (std::pair<Idx, Idx>{l, l + 1}));
  }
  // A depth-1 node spans half the leaves.
  EXPECT_EQ(t.leaf_range(1), (std::pair<Idx, Idx>{0, 4}));
  EXPECT_EQ(t.leaf_range(2), (std::pair<Idx, Idx>{4, 8}));
}

TEST(Nd, PathToRoot) {
  const CsrMatrix a = make_grid2d(8, 8, Stencil2d::kFivePoint);
  NdOptions opt;
  opt.levels = 2;
  const NdOrdering nd = nested_dissection(a, opt);
  const auto path = nd.tree.path_to_root(nd.tree.leaf_node_id(3));
  ASSERT_EQ(path.size(), 3u);  // leaf, depth-1, root
  EXPECT_EQ(path.back(), 0);
  EXPECT_EQ(path[0], nd.tree.leaf_node_id(3));
}

TEST(Nd, DisconnectedGraphStillValid) {
  // Two disjoint grids glued into one matrix.
  CooMatrix coo;
  const CsrMatrix g = make_grid2d(4, 4, Stencil2d::kFivePoint);
  coo.rows = coo.cols = 32;
  for (Idx r = 0; r < 16; ++r) {
    const auto cs = g.row_cols(r);
    const auto vs = g.row_vals(r);
    for (size_t i = 0; i < cs.size(); ++i) {
      coo.add(r, cs[i], vs[i]);
      coo.add(r + 16, cs[i] + 16, vs[i]);
    }
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  NdOptions opt;
  opt.levels = 2;
  const NdOrdering nd = nested_dissection(a, opt);
  EXPECT_TRUE(is_permutation(nd.perm));
  EXPECT_TRUE(nd.tree.check_invariants(32));
}

TEST(Nd, FillReductionBeatsNaturalOrderOnGrid) {
  // Sanity check that the ordering actually reduces fill vs natural order.
  const CsrMatrix a = make_grid2d(16, 16, Stencil2d::kFivePoint);
  NdOptions opt;
  opt.levels = 3;
  const NdOrdering nd = nested_dissection(a, opt);
  const CsrMatrix p = a.permuted_symmetric(nd.perm);

  auto fill_count = [](const CsrMatrix& m) {
    // Dense symbolic Cholesky fill count (n is small).
    const Idx n = m.rows();
    std::vector<std::vector<bool>> f(static_cast<size_t>(n),
                                     std::vector<bool>(static_cast<size_t>(n), false));
    for (Idx i = 0; i < n; ++i) {
      for (const Idx j : m.row_cols(i)) {
        if (j <= i) f[static_cast<size_t>(i)][static_cast<size_t>(j)] = true;
      }
    }
    Nnz cnt = 0;
    for (Idx k = 0; k < n; ++k) {
      for (Idx i = k + 1; i < n; ++i) {
        if (!f[static_cast<size_t>(i)][static_cast<size_t>(k)]) continue;
        for (Idx j = i; j < n; ++j) {
          if (f[static_cast<size_t>(j)][static_cast<size_t>(k)]) {
            f[static_cast<size_t>(j)][static_cast<size_t>(i)] = true;
          }
        }
      }
    }
    for (Idx i = 0; i < n; ++i) {
      for (Idx j = 0; j <= i; ++j) cnt += f[static_cast<size_t>(i)][static_cast<size_t>(j)];
    }
    return cnt;
  };
  EXPECT_LT(fill_count(p), fill_count(a));
}

}  // namespace
}  // namespace sptrsv
