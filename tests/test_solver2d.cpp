#include <gtest/gtest.h>

#include <random>

#include "core/solver2d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

FactoredSystem make_system(int levels = 2) {
  return analyze_and_factor(
      make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny), levels);
}

// RHS generation and the piece scatter/gather helpers are shared with the
// differential and schedule suites via test_support.hpp.
using test::local_pieces;
using test::merge_pieces;
using test::random_rhs;

class Solver2dGridTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Solver2dGridTest, WholeMatrixLThenUMatchesSequential) {
  const auto [px, py] = GetParam();
  const FactoredSystem fs = make_system(0);  // single tracked node = whole matrix
  const Grid2dShape shape{px, py};
  const Solve2dPlan plan =
      make_grid_plan(fs.lu, fs.tree, 0, shape, TreeKind::kBinary);
  const Idx n = fs.lu.n();
  const auto b = random_rhs(n, 1, 3);

  std::vector<Real> y_dist(static_cast<size_t>(n), 0.0);
  std::vector<Real> x_dist(static_cast<size_t>(n), 0.0);
  std::mutex mu;
  Cluster::run(shape.size(), MachineModel::cori_haswell(), [&](Comm& c) {
    const VecMap b_local = local_pieces(fs.lu, plan, c.rank(), plan.cols(), b, 1);
    auto lres = solve_l_2d(c, plan, b_local, {}, 1, 0);
    auto ures = solve_u_2d(c, plan, lres.y, {}, 1, 40000);
    std::lock_guard<std::mutex> lk(mu);
    merge_pieces(fs.lu, lres.y, y_dist, 1);
    merge_pieces(fs.lu, ures.x, x_dist, 1);
  });

  std::vector<Real> y_ref(static_cast<size_t>(n)), x_ref(static_cast<size_t>(n));
  solve_l_seq(fs.lu, b, y_ref, 1);
  solve_u_seq(fs.lu, y_ref, x_ref, 1);
  for (Idx i = 0; i < n; ++i) {
    EXPECT_NEAR(y_dist[static_cast<size_t>(i)], y_ref[static_cast<size_t>(i)], 1e-10);
    EXPECT_NEAR(x_dist[static_cast<size_t>(i)], x_ref[static_cast<size_t>(i)], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, Solver2dGridTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 3},
                                           std::pair{3, 1}, std::pair{2, 2},
                                           std::pair{3, 4}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) + "x" +
                                  std::to_string(info.param.second);
                         });

TEST(Solver2d, ExternalLsumMatchesManualComputation) {
  // Solve only leaf node 0's columns; the handed-back external partial sums
  // must equal L(ancestors, leaf0) * y(leaf0).
  const FactoredSystem fs = make_system(1);
  const Grid2dShape shape{2, 2};
  const Idx leaf0 = fs.tree.leaf_node_id(0);
  const Solve2dPlan plan = make_node_plan(fs.lu, fs.tree, leaf0, shape, TreeKind::kBinary);
  ASSERT_FALSE(plan.external_rows().empty());
  const Idx n = fs.lu.n();
  const auto b = random_rhs(n, 1, 5);

  std::vector<Real> y_dist(static_cast<size_t>(n), 0.0);
  std::vector<Real> lsum_dist(static_cast<size_t>(n), 0.0);
  std::mutex mu;
  Cluster::run(shape.size(), MachineModel::cori_haswell(), [&](Comm& c) {
    const VecMap b_local = local_pieces(fs.lu, plan, c.rank(), plan.cols(), b, 1);
    auto res = solve_l_2d(c, plan, b_local, {}, 1, 0);
    std::lock_guard<std::mutex> lk(mu);
    merge_pieces(fs.lu, res.y, y_dist, 1);
    merge_pieces(fs.lu, res.external_lsum, lsum_dist, 1);
  });

  // Reference: full sequential L-solve with b zeroed outside leaf 0 gives
  // the same y on leaf 0; external lsum(I) = sum_K L(I,K) y(K) over leaf
  // columns, which we recover via lsum = b_masked - L*y_ext ... simpler:
  // run the sequential solve on the masked RHS and compare the *solution*
  // of ancestor rows: y_anc = inv(L_anc) * (-lsum), so lsum = -L_anc*y_anc.
  std::vector<Real> b_masked(static_cast<size_t>(n), 0.0);
  const auto& nd = fs.tree.node(leaf0);
  for (Idx i = nd.col_begin; i < nd.col_end; ++i) {
    b_masked[static_cast<size_t>(i)] = b[static_cast<size_t>(i)];
  }
  std::vector<Real> y_ref(static_cast<size_t>(n));
  solve_l_seq(fs.lu, b_masked, y_ref, 1);
  // Leaf solution must match exactly.
  for (Idx i = nd.col_begin; i < nd.col_end; ++i) {
    EXPECT_NEAR(y_dist[static_cast<size_t>(i)], y_ref[static_cast<size_t>(i)], 1e-10);
  }
  // For external rows, y_ref satisfies L_ext*y_ext = -lsum restricted to
  // those rows... verify the equivalent forward relation instead: feeding
  // the external lsum back as lsum_in with zero b must reproduce y_ref on
  // the ancestors. Use a 1x1 grid for the check.
  const Solve2dPlan rest = Solve2dPlan::build(
      fs.lu, {1, 1}, TreeKind::kBinary,
      std::vector<Idx>(plan.external_rows().begin(), plan.external_rows().end()), {});
  std::vector<Real> y_anc(static_cast<size_t>(n), 0.0);
  Cluster::run(1, MachineModel::cori_haswell(), [&](Comm& c) {
    VecMap lsum_in = local_pieces(fs.lu, rest, 0, rest.cols(), lsum_dist, 1);
    auto res = solve_l_2d(c, rest, {}, lsum_in, 1, 0);
    merge_pieces(fs.lu, res.y, y_anc, 1);
  });
  for (const Idx k : rest.cols()) {
    const Idx base = fs.lu.sym.part.first_col(k);
    for (Idx i = 0; i < fs.lu.sym.part.width(k); ++i) {
      EXPECT_NEAR(y_anc[static_cast<size_t>(base + i)],
                  y_ref[static_cast<size_t>(base + i)], 1e-10);
    }
  }
}

TEST(Solver2d, FlatAndBinaryTreesGiveIdenticalResults) {
  const FactoredSystem fs = make_system(0);
  const Grid2dShape shape{2, 3};
  const Idx n = fs.lu.n();
  const auto b = random_rhs(n, 2, 7);
  std::vector<std::vector<Real>> results;
  for (const TreeKind kind : {TreeKind::kBinary, TreeKind::kFlat}) {
    const Solve2dPlan plan = make_grid_plan(fs.lu, fs.tree, 0, shape, kind);
    std::vector<Real> y(static_cast<size_t>(n) * 2, 0.0);
    std::mutex mu;
    Cluster::run(shape.size(), MachineModel::cori_haswell(), [&](Comm& c) {
      const VecMap b_local = local_pieces(fs.lu, plan, c.rank(), plan.cols(), b, 2);
      auto res = solve_l_2d(c, plan, b_local, {}, 2, 0);
      std::lock_guard<std::mutex> lk(mu);
      merge_pieces(fs.lu, res.y, y, 2);
    });
    results.push_back(std::move(y));
  }
  for (size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_NEAR(results[0][i], results[1][i], 1e-11);
  }
}

TEST(Solver2d, ConcurrentSolvesOnOneCommStaySeparated) {
  // Two independent L-solves with different tag windows pipelined on the
  // same communicator: a rank that finishes the first solve immediately
  // starts the second while peers are still in the first, so second-solve
  // messages arrive early and must stay queued (the tag-window machinery
  // the baseline algorithm's overlapping levels rely on). Note the solves
  // must start in the SAME order on every rank — discordant orders
  // deadlock, exactly as discordant collective orders do in MPI.
  const FactoredSystem fs = make_system(0);
  const Grid2dShape shape{2, 2};
  const Solve2dPlan plan = make_grid_plan(fs.lu, fs.tree, 0, shape, TreeKind::kBinary);
  const Idx n = fs.lu.n();
  const auto b1 = random_rhs(n, 1, 11);
  const auto b2 = random_rhs(n, 1, 12);

  std::vector<Real> y1(static_cast<size_t>(n), 0.0), y2(static_cast<size_t>(n), 0.0);
  std::mutex mu;
  const int window = 4 * static_cast<int>(fs.lu.num_supernodes()) + 4;
  Cluster::run(shape.size(), MachineModel::cori_haswell(), [&](Comm& c) {
    const VecMap l1 = local_pieces(fs.lu, plan, c.rank(), plan.cols(), b1, 1);
    const VecMap l2 = local_pieces(fs.lu, plan, c.rank(), plan.cols(), b2, 1);
    LSolve2dResult r1 = solve_l_2d(c, plan, l1, {}, 1, 0);
    LSolve2dResult r2 = solve_l_2d(c, plan, l2, {}, 1, window);
    std::lock_guard<std::mutex> lk(mu);
    merge_pieces(fs.lu, r1.y, y1, 1);
    merge_pieces(fs.lu, r2.y, y2, 1);
  });

  std::vector<Real> ref1(static_cast<size_t>(n)), ref2(static_cast<size_t>(n));
  solve_l_seq(fs.lu, b1, ref1, 1);
  solve_l_seq(fs.lu, b2, ref2, 1);
  for (Idx i = 0; i < n; ++i) {
    EXPECT_NEAR(y1[static_cast<size_t>(i)], ref1[static_cast<size_t>(i)], 1e-10);
    EXPECT_NEAR(y2[static_cast<size_t>(i)], ref2[static_cast<size_t>(i)], 1e-10);
  }
}

// Flop conservation: a whole-matrix solve of one triangle charges each
// diagonal inverse and each off-diagonal block exactly once, whatever the
// grid and tree, at the core's multi-RHS GEMM rate. The expected FP time
// comes from the symbolic structure alone, not from the plan the solve
// runs over.
class Solver2dFlopTest : public ::testing::TestWithParam<PaperMatrix> {};

TEST_P(Solver2dFlopTest, ChargesEachBlockExactlyOnce) {
  const FactoredSystem fs =
      analyze_and_factor(make_paper_matrix(GetParam(), MatrixScale::kTiny), 0);
  const auto& sym = fs.lu.sym;
  double flops_per_rhs = 0.0;
  for (Idx k = 0; k < static_cast<Idx>(fs.lu.num_supernodes()); ++k) {
    const double wk = sym.part.width(k);
    flops_per_rhs += 2.0 * wk * wk;
    for (const Idx i : sym.below[static_cast<size_t>(k)]) {
      flops_per_rhs += 2.0 * sym.part.width(i) * wk;
    }
  }
  const MachineModel m = MachineModel::cori_haswell();
  for (const Grid2dShape shape :
       {Grid2dShape{1, 1}, Grid2dShape{2, 3}, Grid2dShape{4, 4}}) {
    for (const TreeKind kind : {TreeKind::kBinary, TreeKind::kFlat}) {
      const Solve2dPlan plan = make_grid_plan(fs.lu, fs.tree, 0, shape, kind);
      for (const Idx nrhs : {1, 3, 8}) {
        const auto b = random_rhs(fs.lu.n(), nrhs, 13);
        for (const bool lower : {true, false}) {
          const Cluster::Result res = Cluster::run(shape.size(), m, [&](Comm& c) {
            const VecMap rhs = local_pieces(fs.lu, plan, c.rank(), plan.cols(), b, nrhs);
            if (lower) {
              solve_l_2d(c, plan, rhs, {}, nrhs, 0);
            } else {
              solve_u_2d(c, plan, rhs, {}, nrhs, 0);
            }
          });
          double fp = 0.0;
          for (const RankStats& r : res.ranks) {
            fp += r.category[static_cast<int>(TimeCategory::kFp)];
          }
          const double rate = m.cpu_flop_rate * gemm_boost(nrhs, kCoreGemmBoostCap);
          const double expected = flops_per_rhs * nrhs / rate;
          EXPECT_NEAR(fp, expected, 1e-12 * expected)
              << "grid " << shape.px << "x" << shape.py << " tree "
              << (kind == TreeKind::kBinary ? "binary" : "flat") << " nrhs " << nrhs
              << (lower ? " L" : " U");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table1, Solver2dFlopTest,
                         ::testing::ValuesIn(all_paper_matrices()),
                         [](const auto& info) { return paper_matrix_name(info.param); });

TEST(Solver2d, MissingExternalSolutionThrows) {
  const FactoredSystem fs = make_system(1);
  const Grid2dShape shape{1, 1};
  const Idx leaf0 = fs.tree.leaf_node_id(0);
  const Solve2dPlan plan = make_node_plan(fs.lu, fs.tree, leaf0, shape, TreeKind::kBinary);
  ASSERT_FALSE(plan.external_rows().empty());
  EXPECT_THROW(Cluster::run(1, MachineModel::cori_haswell(),
                            [&](Comm& c) {
                              // x_external deliberately empty.
                              solve_u_2d(c, plan, {}, {}, 1, 0);
                            }),
               std::invalid_argument);
}

TEST(Solver2d, MismatchedRhsSizeThrows) {
  const FactoredSystem fs = make_system(0);
  const Grid2dShape shape{1, 1};
  const Solve2dPlan plan = make_grid_plan(fs.lu, fs.tree, 0, shape, TreeKind::kBinary);
  EXPECT_THROW(Cluster::run(1, MachineModel::cori_haswell(),
                            [&](Comm& c) {
                              VecMap bogus;
                              bogus.emplace(plan.cols()[0], std::vector<Real>(1, 1.0));
                              solve_l_2d(c, plan, bogus, {}, /*nrhs=*/2, 0);
                            }),
               std::invalid_argument);
}

}  // namespace
}  // namespace sptrsv
