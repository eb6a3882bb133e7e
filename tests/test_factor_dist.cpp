#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <stdexcept>

#include "dist/factor_dist.hpp"
#include "factor/sptrsv_seq.hpp"
#include "ordering/etree.hpp"
#include "sparse/generators.hpp"
#include "sparse/paper_matrices.hpp"
#include "symbolic/colcounts.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

SymbolicStructure analyze(const CsrMatrix& a) {
  const auto parent = elimination_tree(a);
  const auto counts = cholesky_col_counts(a, parent);
  return block_symbolic(a, find_supernodes(parent, counts));
}

/// Max elementwise difference between two factorizations' stored values.
Real factor_diff(const SupernodalLU& x, const SupernodalLU& y) {
  Real worst = 0;
  auto cmp = [&](const std::vector<std::vector<Real>>& a,
                 const std::vector<std::vector<Real>>& b) {
    for (size_t k = 0; k < a.size(); ++k) {
      for (size_t i = 0; i < a[k].size(); ++i) {
        worst = std::max(worst, std::abs(a[k][i] - b[k][i]));
      }
    }
  };
  cmp(x.diag, y.diag);
  cmp(x.lpanel, y.lpanel);
  cmp(x.upanel, y.upanel);
  cmp(x.diag_linv, y.diag_linv);
  cmp(x.diag_uinv, y.diag_uinv);
  return worst;
}

class FactorDistTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FactorDistTest, MatchesSequentialFactorization) {
  const auto [px, py] = GetParam();
  const CsrMatrix a = make_grid2d(9, 9, Stencil2d::kNinePoint);
  const SupernodalLU seq = factor_supernodal(a, analyze(a));
  const SupernodalLU dist = factor_supernodal_distributed(
      a, analyze(a), {px, py}, MachineModel::cori_haswell());
  EXPECT_LT(factor_diff(seq, dist), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Grids, FactorDistTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 1},
                                           std::pair{1, 2}, std::pair{2, 2},
                                           std::pair{3, 2}, std::pair{4, 4}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) + "x" +
                                  std::to_string(info.param.second);
                         });

TEST(FactorDist, SolveWithDistributedFactors) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kLdoor, MatrixScale::kTiny);
  const SupernodalLU f = factor_supernodal_distributed(
      a, analyze(a), {2, 3}, MachineModel::cori_haswell());
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<Real> uni(-1.0, 1.0);
  std::vector<Real> b(static_cast<size_t>(a.rows()));
  for (auto& v : b) v = uni(rng);
  const auto x = solve_seq(f, b);
  EXPECT_LT(relative_residual(a, x, b), 1e-11);
}

TEST(FactorDist, RandomMatricesAcrossGrids) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const CsrMatrix a = make_random_symmetric(120, 3.0, seed);
    const SupernodalLU seq = factor_supernodal(a, analyze(a));
    const SupernodalLU dist = factor_supernodal_distributed(
        a, analyze(a), {2, 2}, MachineModel::cori_haswell());
    EXPECT_LT(factor_diff(seq, dist), 1e-11) << "seed " << seed;
  }
}

TEST(FactorDist, StatsArePopulated) {
  const CsrMatrix a = make_grid2d(10, 10, Stencil2d::kFivePoint);
  DistFactorStats stats;
  factor_supernodal_distributed(a, analyze(a), {2, 2},
                                MachineModel::cori_haswell(), &stats);
  EXPECT_GT(stats.makespan, 0);
  EXPECT_GT(stats.mean_fp, 0);
  EXPECT_GT(stats.total_messages, 0);
  EXPECT_GT(stats.total_bytes, 0);
}

TEST(FactorDist, MoreRanksReduceModeledTime) {
  // Weak sanity on the model: 4x4 should beat 1x1 on a decent-size matrix.
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  DistFactorStats s1, s16;
  factor_supernodal_distributed(a, analyze(a), {1, 1},
                                MachineModel::cori_haswell(), &s1);
  factor_supernodal_distributed(a, analyze(a), {4, 4},
                                MachineModel::cori_haswell(), &s16);
  EXPECT_LT(s16.makespan, s1.makespan);
}

TEST(FactorDist, NonFiniteInputThrows) {
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();
  const struct {
    Idx r, c;
    Real v;
  } cases[] = {{2, 2, nan}, {2, 2, inf}, {1, 2, nan}};
  for (const auto& tc : cases) {
    const CsrMatrix a = test::tridiagonal_with(tc.r, tc.c, tc.v);
    EXPECT_THROW(factor_supernodal_distributed(a, analyze(a), {2, 2},
                                               MachineModel::cori_haswell()),
                 std::invalid_argument)
        << tc.v << " at (" << tc.r << ", " << tc.c << ")";
  }
}

TEST(FactorDist, ZeroPivotPropagates) {
  CooMatrix coo;
  coo.rows = coo.cols = 2;
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 1.0);  // singular
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_THROW(factor_supernodal_distributed(a, analyze(a), {2, 2},
                                             MachineModel::cori_haswell()),
               std::runtime_error);
}

}  // namespace
}  // namespace sptrsv
