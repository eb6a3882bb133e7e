#include <gtest/gtest.h>

#include <random>

#include "core/refinement.hpp"
#include "factor/sptrsv_seq.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

std::vector<Real> random_rhs(Idx n, Idx nrhs, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> uni(-1.0, 1.0);
  std::vector<Real> b(static_cast<size_t>(n) * nrhs);
  for (auto& v : b) v = uni(rng);
  return b;
}

TEST(Refinement, ConvergesInOneOrTwoIterations) {
  // A well-conditioned diagonally dominant system: the first corrected
  // solve already reaches working accuracy.
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const auto b = random_rhs(a.rows(), 1, 3);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  const RefinementResult r =
      iterative_refinement(a, fs, b, cfg, MachineModel::cori_haswell());
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations(), 3);
  EXPECT_LT(r.residual_history.back(), 1e-13);
  EXPECT_LT(relative_residual(a, r.x, b), 1e-12);
  EXPECT_GT(r.modeled_solve_time, 0);
}

TEST(Refinement, ResidualsAreMonotoneUntilConvergence) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kLdoor, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 1);
  const auto b = random_rhs(a.rows(), 2, 4);
  SolveConfig cfg;
  cfg.shape = {1, 2, 2};
  cfg.nrhs = 2;
  RefinementOptions opt;
  opt.tolerance = 0;  // force max_iterations to observe the decay
  opt.max_iterations = 3;
  const RefinementResult r =
      iterative_refinement(a, fs, b, cfg, MachineModel::cori_haswell(), opt);
  ASSERT_EQ(r.iterations(), 3);
  // Each iteration must not increase the residual (beyond roundoff noise).
  EXPECT_LE(r.residual_history[1], r.residual_history[0] * 1.5);
  EXPECT_LE(r.residual_history[2], r.residual_history[0] * 1.5);
}

TEST(Refinement, MultiRhsConverges) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kNlpkkt80, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const Idx nrhs = 4;
  const auto b = random_rhs(a.rows(), nrhs, 5);
  SolveConfig cfg;
  cfg.shape = {1, 1, 4};
  cfg.nrhs = nrhs;
  const RefinementResult r =
      iterative_refinement(a, fs, b, cfg, MachineModel::perlmutter());
  EXPECT_TRUE(r.converged);
  EXPECT_LT(relative_residual(a, r.x, b, nrhs), 1e-12);
}

TEST(Refinement, RhsSizeMismatchThrows) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 1);
  SolveConfig cfg;
  cfg.shape = {1, 1, 2};
  cfg.nrhs = 2;
  const std::vector<Real> b(static_cast<size_t>(a.rows()), 1.0);  // only 1 RHS
  EXPECT_THROW(iterative_refinement(a, fs, b, cfg, MachineModel::cori_haswell()),
               std::invalid_argument);
}

TEST(Refinement, ModeledTimeAccumulatesPerIteration) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 1);
  const auto b = random_rhs(a.rows(), 1, 6);
  SolveConfig cfg;
  cfg.shape = {1, 1, 2};
  RefinementOptions one, three;
  one.tolerance = 0;
  one.max_iterations = 1;
  three.tolerance = 0;
  three.max_iterations = 3;
  const auto r1 = iterative_refinement(a, fs, b, cfg, MachineModel::cori_haswell(), one);
  const auto r3 =
      iterative_refinement(a, fs, b, cfg, MachineModel::cori_haswell(), three);
  EXPECT_GT(r3.modeled_solve_time, 2.0 * r1.modeled_solve_time * 0.8);
}

// ---------------------------------------------------------------------------
// Refinement under perturbation (docs/ROBUSTNESS.md): every inner solve
// rides the same two-ledger contract, so delivery faults and crashes leave
// the numerical trajectory bitwise unchanged.
// ---------------------------------------------------------------------------

TEST(Refinement, DeliveryFaultsLeaveTheTrajectoryBitwiseClean) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const auto b = random_rhs(a.rows(), 1, 3);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run.seed = 9;
  RefinementOptions opt;
  opt.tolerance = 0;  // fixed-length run: identical iteration counts by design
  opt.max_iterations = 3;
  const RefinementResult clean =
      iterative_refinement(a, fs, b, cfg, test::test_machine(), opt);
  const RefinementResult faulty =
      iterative_refinement(a, fs, b, cfg, test::faulty_machine(), opt);
  EXPECT_EQ(faulty.iterations(), clean.iterations());
  EXPECT_TRUE(test::bitwise_equal(faulty.x, clean.x));
  EXPECT_TRUE(test::bitwise_equal(faulty.residual_history, clean.residual_history));
  // Monotone decay survives the fault schedule (roundoff slack as above).
  for (size_t i = 1; i < faulty.residual_history.size(); ++i) {
    EXPECT_LE(faulty.residual_history[i], faulty.residual_history[0] * 1.5);
  }
}

TEST(Refinement, MidRefinementCrashRecoversBitwise) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const auto b = random_rhs(a.rows(), 1, 3);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  const RefinementResult clean =
      iterative_refinement(a, fs, b, cfg, test::test_machine());
  ASSERT_TRUE(clean.converged);

  // Probe one inner solve for rank 1's clean finish time, then crash that
  // rank halfway through — the schedule re-fires inside every refinement
  // iteration's solve (vt restarts at reset_clock), so recovery runs
  // repeatedly mid-refinement.
  const DistSolveOutcome probe = solve_system_3d(fs, b, cfg, test::test_machine());
  MachineModel crashy = test::test_machine();
  crashy.perturb.crashes.push_back({1, 0.5 * probe.run_stats.ranks[1].vtime});
  const RefinementResult crashed = iterative_refinement(a, fs, b, cfg, crashy);
  EXPECT_TRUE(crashed.converged);
  EXPECT_EQ(crashed.iterations(), clean.iterations());
  EXPECT_TRUE(test::bitwise_equal(crashed.x, clean.x));
  EXPECT_TRUE(test::bitwise_equal(crashed.residual_history, clean.residual_history));
  for (size_t i = 1; i < crashed.residual_history.size(); ++i) {
    EXPECT_LE(crashed.residual_history[i], crashed.residual_history[0] * 1.5);
  }
}

}  // namespace
}  // namespace sptrsv
