#include <gtest/gtest.h>

#include "ordering/etree.hpp"
#include "sparse/generators.hpp"

namespace sptrsv {
namespace {

/// Brute-force reference elimination tree: parent(j) = min{i > j :
/// L(i,j) != 0} computed via dense symbolic Cholesky fill.
std::vector<Idx> etree_reference(const CsrMatrix& a) {
  const Idx n = a.rows();
  std::vector<std::vector<bool>> fill(static_cast<size_t>(n),
                                      std::vector<bool>(static_cast<size_t>(n), false));
  for (Idx i = 0; i < n; ++i) {
    for (const Idx j : a.row_cols(i)) fill[static_cast<size_t>(i)][static_cast<size_t>(j)] = true;
  }
  // Symbolic fill: for k < i < j, if L(i,k) and L(j,k) then L(j,i).
  for (Idx k = 0; k < n; ++k) {
    for (Idx i = k + 1; i < n; ++i) {
      if (!fill[static_cast<size_t>(i)][static_cast<size_t>(k)]) continue;
      for (Idx j = i + 1; j < n; ++j) {
        if (fill[static_cast<size_t>(j)][static_cast<size_t>(k)]) {
          fill[static_cast<size_t>(j)][static_cast<size_t>(i)] = true;
        }
      }
    }
  }
  std::vector<Idx> parent(static_cast<size_t>(n), kNoIdx);
  for (Idx j = 0; j < n; ++j) {
    for (Idx i = j + 1; i < n; ++i) {
      if (fill[static_cast<size_t>(i)][static_cast<size_t>(j)]) {
        parent[static_cast<size_t>(j)] = i;
        break;
      }
    }
  }
  return parent;
}

TEST(Etree, MatchesBruteForceOnGrid) {
  const CsrMatrix a = make_grid2d(4, 4, Stencil2d::kFivePoint);
  EXPECT_EQ(elimination_tree(a), etree_reference(a));
}

TEST(Etree, MatchesBruteForceOnRandoms) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const CsrMatrix a = make_random_symmetric(40, 3.0, seed);
    EXPECT_EQ(elimination_tree(a), etree_reference(a)) << "seed " << seed;
  }
}

TEST(Etree, TridiagonalIsAPath) {
  const CsrMatrix a = make_banded(6, 1);
  const auto parent = elimination_tree(a);
  for (Idx j = 0; j < 5; ++j) EXPECT_EQ(parent[static_cast<size_t>(j)], j + 1);
  EXPECT_EQ(parent[5], kNoIdx);
}

TEST(Etree, DiagonalMatrixIsAForestOfRoots) {
  CooMatrix coo;
  coo.rows = coo.cols = 4;
  for (Idx i = 0; i < 4; ++i) coo.add(i, i, 1.0);
  const auto parent = elimination_tree(CsrMatrix::from_coo(coo));
  for (const Idx p : parent) EXPECT_EQ(p, kNoIdx);
}

TEST(Etree, IsTopologicallyOrdered) {
  const CsrMatrix a = make_grid2d(5, 5, Stencil2d::kNinePoint);
  EXPECT_TRUE(is_topologically_ordered_forest(elimination_tree(a)));
}

}  // namespace
}  // namespace sptrsv
