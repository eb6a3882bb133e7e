#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sparse/generators.hpp"
#include "sparse/graph.hpp"

namespace sptrsv {
namespace {

TEST(Graph, FromMatrixDropsDiagonal) {
  const CsrMatrix m = make_grid2d(3, 3, Stencil2d::kFivePoint);
  const Graph g = Graph::from_matrix(m);
  EXPECT_EQ(g.num_vertices(), 9);
  // 5-point 3x3 grid: 12 undirected edges.
  EXPECT_EQ(g.num_edges(), 12);
  for (Idx v = 0; v < g.num_vertices(); ++v) {
    for (const Idx u : g.neighbors(v)) EXPECT_NE(u, v);
  }
}

TEST(Graph, DegreesMatchStencil) {
  const Graph g = Graph::from_matrix(make_grid2d(3, 3, Stencil2d::kFivePoint));
  EXPECT_EQ(g.degree(4), 4);  // center
  EXPECT_EQ(g.degree(0), 2);  // corner
}

TEST(Graph, InducedSubgraph) {
  const Graph g = Graph::from_matrix(make_grid2d(3, 3, Stencil2d::kFivePoint));
  // Take the first row of the grid: vertices 0,1,2 form a path.
  const std::vector<Idx> verts{0, 1, 2};
  const Graph s = g.induced_subgraph(verts);
  EXPECT_EQ(s.num_vertices(), 3);
  EXPECT_EQ(s.num_edges(), 2);
  EXPECT_EQ(s.degree(1), 2);
  EXPECT_EQ(s.degree(0), 1);
}

TEST(Graph, InducedSubgraphRelabelsLocally) {
  const Graph g = Graph::from_matrix(make_grid2d(3, 3, Stencil2d::kFivePoint));
  const std::vector<Idx> verts{3, 4, 5};
  const Graph s = g.induced_subgraph(verts);
  for (Idx v = 0; v < s.num_vertices(); ++v) {
    for (const Idx u : s.neighbors(v)) {
      EXPECT_GE(u, 0);
      EXPECT_LT(u, s.num_vertices());
    }
  }
}

TEST(Graph, InducedSubgraphWithCallerMapMatchesAndResetsTheMap) {
  const Graph g = Graph::from_matrix(make_grid2d(5, 4, Stencil2d::kNinePoint));
  std::vector<Idx> local(static_cast<size_t>(g.num_vertices()), kNoIdx);
  const std::vector<std::vector<Idx>> subsets{
      {0, 1, 2, 5, 6}, {19, 3, 7, 11}, {}, {4, 8, 12, 16, 9, 13, 17}};
  for (const auto& verts : subsets) {
    const Graph expect = g.induced_subgraph(verts);
    const Graph s = g.induced_subgraph(verts, local);
    ASSERT_EQ(s.num_vertices(), expect.num_vertices());
    for (Idx v = 0; v < s.num_vertices(); ++v) {
      const auto got = s.neighbors(v);
      const auto want = expect.neighbors(v);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
    }
    for (const Idx l : local) ASSERT_EQ(l, kNoIdx) << "map not reset after a call";
  }
  std::vector<Idx> short_map(3, kNoIdx);
  EXPECT_THROW(g.induced_subgraph(subsets[0], short_map), std::invalid_argument);
}

TEST(Graph, ComponentsOfConnectedGrid) {
  const Graph g = Graph::from_matrix(make_grid2d(4, 4, Stencil2d::kFivePoint));
  EXPECT_EQ(g.num_components(), 1);
}

TEST(Graph, ComponentsOfDisjointSubgraph) {
  const Graph g = Graph::from_matrix(make_grid2d(3, 3, Stencil2d::kFivePoint));
  // Opposite corners only: no edges.
  const Graph s = g.induced_subgraph(std::vector<Idx>{0, 8});
  EXPECT_EQ(s.num_components(), 2);
  EXPECT_EQ(s.num_edges(), 0);
}

TEST(Graph, FromRawValidates) {
  EXPECT_NO_THROW(Graph::from_raw(2, {0, 1, 2}, {1, 0}));
  EXPECT_THROW(Graph::from_raw(2, {0, 1}, {1, 0}), std::invalid_argument);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_raw(0, {0}, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_components(), 0);
}

}  // namespace
}  // namespace sptrsv
