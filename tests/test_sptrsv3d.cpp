#include <gtest/gtest.h>

#include <random>

#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "sparse/generators.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

using test::max_abs_diff;
using test::random_rhs;

struct Case {
  Grid3dShape shape;
  Algorithm3d alg;
  TreeKind tree;
  Idx nrhs;
  std::string name;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  auto add = [&](int px, int py, int pz, Algorithm3d alg, TreeKind tk, Idx nrhs) {
    const std::string alg_s = alg == Algorithm3d::kProposed ? "new" : "base";
    const std::string tk_s = tk == TreeKind::kBinary ? "btree" : "flat";
    cases.push_back({{px, py, pz},
                     alg,
                     tk,
                     nrhs,
                     alg_s + "_" + tk_s + "_p" + std::to_string(px) + "x" +
                         std::to_string(py) + "x" + std::to_string(pz) + "_r" +
                         std::to_string(nrhs)});
  };
  for (const auto alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
    add(1, 1, 1, alg, TreeKind::kBinary, 1);
    add(2, 2, 1, alg, TreeKind::kBinary, 1);
    add(2, 3, 2, alg, TreeKind::kBinary, 1);
    add(1, 1, 4, alg, TreeKind::kBinary, 1);
    add(3, 2, 4, alg, TreeKind::kBinary, 1);
    add(2, 2, 8, alg, TreeKind::kBinary, 1);
    add(2, 2, 2, alg, TreeKind::kFlat, 1);
    add(2, 2, 4, alg, TreeKind::kBinary, 3);
    add(4, 1, 2, alg, TreeKind::kBinary, 1);
    add(1, 4, 2, alg, TreeKind::kBinary, 1);
  }
  return cases;
}

class Sptrsv3dTest : public ::testing::TestWithParam<Case> {};

TEST_P(Sptrsv3dTest, MatchesSequentialSolve) {
  const Case& c = GetParam();
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), c.nrhs, 42);

  SolveConfig cfg;
  cfg.shape = c.shape;
  cfg.algorithm = c.alg;
  cfg.tree = c.tree;
  cfg.nrhs = c.nrhs;
  const DistSolveOutcome out =
      solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());

  const auto ref = solve_system_seq(fs, b, c.nrhs);
  EXPECT_LT(max_abs_diff(out.x, ref), 1e-9);
  EXPECT_LT(relative_residual(a, out.x, b, c.nrhs), 1e-9);
  EXPECT_GT(out.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Sptrsv3dTest, ::testing::ValuesIn(all_cases()),
                         [](const auto& info) { return info.param.name; });

class Sptrsv3dMatrixTest : public ::testing::TestWithParam<PaperMatrix> {};

TEST_P(Sptrsv3dMatrixTest, BothAlgorithmsSolveEveryPaperMatrix) {
  const CsrMatrix a = make_paper_matrix(GetParam(), MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const auto b = random_rhs(a.rows(), 2, 7);
  for (const auto alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
    SolveConfig cfg;
    cfg.shape = {2, 2, 4};
    cfg.algorithm = alg;
    cfg.nrhs = 2;
    const DistSolveOutcome out =
        solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());
    EXPECT_LT(relative_residual(a, out.x, b, 2), 1e-9)
        << paper_matrix_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperMatrices, Sptrsv3dMatrixTest,
                         ::testing::ValuesIn(all_paper_matrices()),
                         [](const auto& info) { return paper_matrix_name(info.param); });

TEST(Sptrsv3d, DenseZReduceAblationMatches) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const auto b = random_rhs(a.rows(), 1, 5);
  SolveConfig cfg;
  cfg.shape = {2, 2, 4};
  cfg.sparse_zreduce = false;  // per-node dense allreduce ablation
  const DistSolveOutcome out =
      solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());
  EXPECT_LT(relative_residual(a, out.x, b), 1e-9);
}

TEST(Sptrsv3d, RandomMatrixProperty) {
  // Property sweep: random symmetric matrices, random-ish shapes.
  const std::vector<Grid3dShape> shapes{{1, 2, 2}, {2, 1, 4}, {2, 2, 2}};
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const CsrMatrix a = make_random_symmetric(150, 3.0, seed);
    const FactoredSystem fs = analyze_and_factor(a, 2);
    const auto b = random_rhs(a.rows(), 1, seed);
    for (const auto& shape : shapes) {
      for (const auto alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
        SolveConfig cfg;
        cfg.shape = shape;
        cfg.algorithm = alg;
        const DistSolveOutcome out =
            solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());
        EXPECT_LT(relative_residual(a, out.x, b), 1e-8)
            << "seed " << seed << " shape " << shape.px << "x" << shape.py << "x"
            << shape.pz;
      }
    }
  }
}

TEST(Sptrsv3d, PhaseTimesArePopulated) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const auto b = random_rhs(a.rows(), 1, 3);
  SolveConfig cfg;
  cfg.shape = {2, 2, 4};
  const DistSolveOutcome out =
      solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());
  EXPECT_EQ(out.rank_times.size(), 16u);
  EXPECT_GT(out.mean(&RankPhaseTimes::l_fp), 0.0);
  EXPECT_GT(out.mean(&RankPhaseTimes::u_fp), 0.0);
  EXPECT_GT(out.mean(&RankPhaseTimes::z_time), 0.0);  // Pz=4: allreduce happened
  EXPECT_GE(out.max(&RankPhaseTimes::total), out.mean(&RankPhaseTimes::total));
  EXPECT_LE(out.min(&RankPhaseTimes::l_fp), out.mean(&RankPhaseTimes::l_fp));
  EXPECT_DOUBLE_EQ(out.makespan, out.max(&RankPhaseTimes::total));
}

TEST(Sptrsv3d, ProposedDoesReplicatedWork) {
  // The proposed algorithm trades replication for synchronization: summed
  // FP time across ranks must exceed the baseline's.
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kNlpkkt80, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const auto b = random_rhs(a.rows(), 1, 4);
  auto total_fp = [&](Algorithm3d alg) {
    SolveConfig cfg;
    cfg.shape = {1, 1, 4};
    cfg.algorithm = alg;
    const DistSolveOutcome out =
        solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());
    return out.mean(&RankPhaseTimes::l_fp) + out.mean(&RankPhaseTimes::u_fp);
  };
  EXPECT_GT(total_fp(Algorithm3d::kProposed), total_fp(Algorithm3d::kBaseline));
}

TEST(Sptrsv3d, InvalidShapesThrow) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const auto b = random_rhs(a.rows(), 1, 1);
  SolveConfig cfg;
  cfg.shape = {1, 1, 3};  // not a power of two
  EXPECT_THROW(solve_system_3d(fs, b, cfg, MachineModel::cori_haswell()),
               std::invalid_argument);
  cfg.shape = {1, 1, 8};  // deeper than the tracked tree (levels=2)
  EXPECT_THROW(solve_system_3d(fs, b, cfg, MachineModel::cori_haswell()),
               std::invalid_argument);
  for (const Grid3dShape bad : {Grid3dShape{0, 2, 2}, Grid3dShape{2, 0, 2},
                                 Grid3dShape{-1, 2, 2}}) {
    cfg.shape = bad;  // an empty process-grid dimension
    EXPECT_THROW(solve_system_3d(fs, b, cfg, MachineModel::cori_haswell()),
                 std::invalid_argument);
  }
  cfg.shape = {1, 1, 2};
  cfg.nrhs = 2;  // b sized for 1 RHS
  EXPECT_THROW(solve_system_3d(fs, b, cfg, MachineModel::cori_haswell()),
               std::invalid_argument);
  for (const Idx nrhs : {0, -1}) {
    cfg.nrhs = nrhs;  // no right-hand side to solve for
    EXPECT_THROW(solve_system_3d(fs, {}, cfg, MachineModel::cori_haswell()),
                 std::invalid_argument)
        << "nrhs=" << nrhs;
    EXPECT_THROW(solve_sptrsv_3d(fs.lu, fs.tree, {}, cfg, MachineModel::cori_haswell()),
                 std::invalid_argument)
        << "nrhs=" << nrhs;
  }
}

}  // namespace
}  // namespace sptrsv
