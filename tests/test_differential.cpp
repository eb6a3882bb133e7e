#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "sparse/generators.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

/// Differential solver oracle (docs/TESTING.md): the same random system is
/// pushed through every solver path — sequential, message-driven 2D,
/// 3D proposed, 3D baseline — and the answers are cross-checked in ULPs,
/// not with a flat absolute tolerance. Paths consuming the *same*
/// factorization perform the same eliminations up to summation order, so
/// they must agree to a handful of ULPs; any looser disagreement is a
/// dropped update or a misrouted partial sum, exactly the bug class a
/// residual check hides. The whole oracle is then repeated under delivery
/// faults and a crash-recovery schedule, where every distributed path must
/// reproduce its clean answer bit-for-bit (the two-ledger contract).

/// Same-factorization paths differ only in the order partial sums are
/// folded (the inter-grid reduction); observed disagreement on the corpus
/// tops out near 3e4 ULP (cancellation-heavy entries), bounded here with
/// ~4x headroom. 2^17 ULP is still ~3e-11 relative — a dropped update or
/// misrouted partial sum shows up as 1e+15 ULP or worse.
constexpr std::uint64_t kSameFactorUlp = std::uint64_t{1} << 17;

class DifferentialOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialOracle, AllSolverPathsAgree) {
  const test::RandomSystem s = test::random_system(GetParam());
  SCOPED_TRACE(s.name);
  const Idx n = s.a.rows();
  const std::vector<Real> b = test::random_rhs(n, s.nrhs, GetParam() ^ 0xD1FF);

  // Oracle path: sequential supernodal solve of the shared factorization.
  const std::vector<Real> ref = solve_system_seq(s.fs, b, s.nrhs);
  EXPECT_LT(relative_residual(s.a, ref, b, s.nrhs), 1e-9);

  // 3D proposed and baseline consume the same factor as the oracle.
  SolveConfig cfg;
  cfg.shape = s.shape;
  cfg.nrhs = s.nrhs;
  cfg.run = RunOptions{.seed = GetParam()};
  cfg.algorithm = Algorithm3d::kProposed;
  const DistSolveOutcome proposed = solve_system_3d(s.fs, b, cfg, test::test_machine());
  cfg.algorithm = Algorithm3d::kBaseline;
  const DistSolveOutcome baseline = solve_system_3d(s.fs, b, cfg, test::test_machine());

  EXPECT_LE(test::max_ulp_distance(proposed.x, ref), kSameFactorUlp);
  EXPECT_LE(test::max_ulp_distance(baseline.x, ref), kSameFactorUlp);
  EXPECT_LE(test::max_ulp_distance(proposed.x, baseline.x), kSameFactorUlp);

  // Message-driven 2D path on its own whole-matrix factorization (the 2D
  // solvers address the matrix as one node), checked against the
  // sequential solve of *that* factor — same-factor tightness again.
  const FactoredSystem fs0 = analyze_and_factor(s.a, 0);
  const std::vector<Real> ref0 = solve_system_seq(fs0, b, s.nrhs);
  const test::Dist2dOutcome d2 = test::solve_system_2d(
      fs0, {2, 2}, b, s.nrhs, test::test_machine(),
      RunOptions{.seed = GetParam()});
  EXPECT_LE(test::max_ulp_distance(d2.x, ref0), kSameFactorUlp);

  // Cross-factorization agreement (different elimination orders, so the
  // bound is the conditioning of the system, not summation order).
  EXPECT_LT(test::max_abs_diff(ref0, ref), 1e-8);
}

/// The oracle under a lossy network: the reliable transport must hand every
/// distributed path its clean answer bit-for-bit, so the clean-run ULP
/// agreement carries over unchanged.
TEST_P(DifferentialOracle, FaultyRunsReproduceCleanAnswers) {
  const test::RandomSystem s = test::random_system(GetParam());
  SCOPED_TRACE(s.name);
  const std::vector<Real> b = test::random_rhs(s.a.rows(), s.nrhs, GetParam() ^ 0xFA17);

  SolveConfig cfg;
  cfg.shape = s.shape;
  cfg.nrhs = s.nrhs;
  cfg.run = RunOptions{.seed = GetParam()};
  for (const Algorithm3d alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
    cfg.algorithm = alg;
    const DistSolveOutcome clean = solve_system_3d(s.fs, b, cfg, test::test_machine());
    const DistSolveOutcome faulty = solve_system_3d(s.fs, b, cfg, test::faulty_machine());
    EXPECT_TRUE(test::bitwise_equal(clean.x, faulty.x));
    EXPECT_EQ(clean.run_stats.fingerprint(), faulty.run_stats.fingerprint());
  }
}

/// The oracle under a crash: a mid-solve rank failure with buddy-checkpoint
/// recovery must also hand back the clean bits, with the recovery cost on
/// the fault ledger only.
TEST_P(DifferentialOracle, CrashingRunsReproduceCleanAnswers) {
  const test::RandomSystem s = test::random_system(GetParam());
  const int nranks = s.shape.px * s.shape.py * s.shape.pz;
  if (nranks < 2) GTEST_SKIP() << "single-rank layout has no rank to crash";
  SCOPED_TRACE(s.name);
  const std::vector<Real> b = test::random_rhs(s.a.rows(), s.nrhs, GetParam() ^ 0xC4A5);

  SolveConfig cfg;
  cfg.shape = s.shape;
  cfg.nrhs = s.nrhs;
  cfg.algorithm = Algorithm3d::kProposed;
  cfg.run = RunOptions{.seed = GetParam()};
  const DistSolveOutcome clean = solve_system_3d(s.fs, b, cfg, test::test_machine());

  MachineModel m = test::test_machine();
  const int victim = 1 + static_cast<int>(GetParam() % static_cast<std::uint64_t>(nranks - 1));
  m.perturb.crashes.push_back(
      {victim, 0.5 * clean.run_stats.ranks[static_cast<std::size_t>(victim)].vtime});
  const DistSolveOutcome crashed = solve_system_3d(s.fs, b, cfg, m);

  EXPECT_TRUE(test::bitwise_equal(clean.x, crashed.x));
  EXPECT_EQ(clean.run_stats.fingerprint(), crashed.run_stats.fingerprint());
  EXPECT_GE(crashed.run_stats.recovery_stats().crashes, 1);
  EXPECT_GT(crashed.run_stats.fault_makespan(), crashed.run_stats.makespan());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialOracle,
                         ::testing::Range<std::uint64_t>(0, 10),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

/// The GPU discrete-event model carries no solution vector, so its
/// differential check is determinism and sanity of the timing surface:
/// bit-identical timings across repeated runs and positive phase times.
TEST(DifferentialGpu, TimingModelIsDeterministicAndPositive) {
  const FactoredSystem fs = analyze_and_factor(
      make_grid2d(24, 24, Stencil2d::kNinePoint, {.seed = 3}), 3);
  for (const auto& [px, pz] : {std::pair{1, 4}, std::pair{2, 2}}) {
    GpuSolveConfig cfg;
    cfg.shape = {px, 1, pz};
    cfg.nrhs = 2;
    const GpuSolveTimes a = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg,
                                                  MachineModel::perlmutter());
    const GpuSolveTimes second = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg,
                                                       MachineModel::perlmutter());
    const auto tag = ::testing::Message() << "shape " << px << "x1x" << pz;
    EXPECT_GT(a.l_solve, 0.0) << tag;
    EXPECT_GT(a.u_solve, 0.0) << tag;
    EXPECT_GE(a.z_comm, 0.0) << tag;
    EXPECT_GE(a.total, a.l_solve + a.u_solve) << tag;
    EXPECT_EQ(std::memcmp(&a.l_solve, &second.l_solve, sizeof a.l_solve), 0) << tag;
    EXPECT_EQ(std::memcmp(&a.z_comm, &second.z_comm, sizeof a.z_comm), 0) << tag;
    EXPECT_EQ(std::memcmp(&a.u_solve, &second.u_solve, sizeof a.u_solve), 0) << tag;
    EXPECT_EQ(std::memcmp(&a.total, &second.total, sizeof a.total), 0) << tag;
    ASSERT_EQ(a.l_finish.size(), second.l_finish.size()) << tag;
    EXPECT_TRUE(test::bitwise_equal(a.l_finish, second.l_finish)) << tag;
    EXPECT_TRUE(test::bitwise_equal(a.u_finish, second.u_finish)) << tag;
  }
}

}  // namespace
}  // namespace sptrsv
