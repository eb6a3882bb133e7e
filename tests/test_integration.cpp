#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <sstream>

#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "sparse/generators.hpp"
#include "sparse/mmio.hpp"

namespace sptrsv {
namespace {

TEST(Integration, MatrixMarketToDistributedSolve) {
  // Full user pipeline: matrix -> MM text -> read back -> factor ->
  // distributed solve -> residual, as examples/custom_matrix does.
  const CsrMatrix a0 = make_grid2d(16, 16, Stencil2d::kNinePoint);
  std::stringstream file;
  write_matrix_market(file, a0);
  const CsrMatrix a = read_matrix_market(file);

  const FactoredSystem fs = analyze_and_factor(a, 2);
  std::vector<Real> ones(static_cast<size_t>(a.rows()), 1.0);
  std::vector<Real> b(static_cast<size_t>(a.rows()));
  a.matvec(ones, b);

  SolveConfig cfg;
  cfg.shape = {2, 2, 4};
  const DistSolveOutcome out = solve_system_3d(fs, b, cfg, MachineModel::perlmutter());
  for (const Real v : out.x) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(Integration, RefactorAndResolveIsDeterministic) {
  // Same matrix, same seed, two full pipelines: bitwise-equal solutions
  // from the sequential path (the distributed path may differ in the last
  // bits because message arrival order varies).
  const CsrMatrix a = make_random_symmetric(200, 4.0, 31);
  const std::vector<Real> b(200, 1.0);
  const FactoredSystem f1 = analyze_and_factor(a, 2);
  const FactoredSystem f2 = analyze_and_factor(a, 2);
  const auto x1 = solve_system_seq(f1, b);
  const auto x2 = solve_system_seq(f2, b);
  for (size_t i = 0; i < x1.size(); ++i) EXPECT_DOUBLE_EQ(x1[i], x2[i]);
}

TEST(Integration, SolveAfterSolveReusesFactor) {
  // Time-stepper pattern: repeated distributed solves against one factor.
  const CsrMatrix a = make_grid2d(12, 12, Stencil2d::kFivePoint);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  SolveConfig cfg;
  cfg.shape = {1, 2, 2};
  std::vector<Real> state(static_cast<size_t>(a.rows()), 1.0);
  for (int step = 0; step < 3; ++step) {
    const DistSolveOutcome out =
        solve_system_3d(fs, state, cfg, MachineModel::cori_haswell());
    EXPECT_LT(relative_residual(a, out.x, state), 1e-9) << "step " << step;
    state = out.x;
  }
}

TEST(Integration, CpuAndGpuModelsShareCorrectness) {
  // The GPU timing model and the message-passing CPU solver consume the same
  // factor; the functional answer comes from the CPU path while the GPU
  // model prices the same plan — verify both accept the same system and
  // the timing model's work accounting is consistent with the solve flops.
  const CsrMatrix a = make_grid2d(20, 20, Stencil2d::kNinePoint);
  const FactoredSystem fs = analyze_and_factor(a, 3);

  GpuSolveConfig gcfg;
  gcfg.shape = {1, 1, 8};
  const auto t = simulate_solve_3d_gpu(fs.lu, fs.tree, gcfg, MachineModel::perlmutter());
  EXPECT_GT(t.total, 0);

  SolveConfig cfg;
  cfg.shape = {1, 1, 8};
  std::vector<Real> b(static_cast<size_t>(a.rows()), 1.0);
  const DistSolveOutcome out = solve_system_3d(fs, b, cfg, MachineModel::perlmutter());
  EXPECT_LT(relative_residual(a, out.x, b), 1e-9);
}

TEST(Integration, LargeRankCountSmoke) {
  // 512 ranks end-to-end (benches go to 2048).
  const CsrMatrix a = make_grid2d(24, 24, Stencil2d::kFivePoint);
  const FactoredSystem fs = analyze_and_factor(a, 3);
  SolveConfig cfg;
  cfg.shape = {8, 8, 8};  // 512 ranks
  std::vector<Real> b(static_cast<size_t>(a.rows()), 1.0);
  const DistSolveOutcome out = solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());
  EXPECT_LT(relative_residual(a, out.x, b), 1e-9);
  EXPECT_EQ(out.rank_times.size(), 512u);
}

}  // namespace
}  // namespace sptrsv
