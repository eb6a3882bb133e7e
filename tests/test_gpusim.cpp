#include <gtest/gtest.h>

#include "core/sptrsv3d.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "sparse/paper_matrices.hpp"

namespace sptrsv {
namespace {

FactoredSystem make_system(PaperMatrix m = PaperMatrix::kS2D9pt2048, int levels = 4,
                           MatrixScale scale = MatrixScale::kTiny) {
  return analyze_and_factor(make_paper_matrix(m, scale), levels);
}

GpuSolveTimes run(const FactoredSystem& fs, int px, int pz, Idx nrhs = 1,
                  const MachineModel& m = MachineModel::perlmutter()) {
  GpuSolveConfig cfg;
  cfg.shape = {px, 1, pz};
  cfg.nrhs = nrhs;
  return simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, m);
}

TEST(GpuModel, ExecAndFabricDerivation) {
  const auto m = MachineModel::perlmutter();
  const auto e = GpuExecModel::from_machine(m, 1);
  EXPECT_EQ(e.sms, m.gpu_sms);
  EXPECT_DOUBLE_EQ(e.sm_flop_rate * m.gpu_sms, m.gpu_flop_rate);
  EXPECT_GT(e.task_time(1e6), e.task_overhead);
  // The multi-RHS rule is exactly 1 at one RHS and saturates at the GPU cap.
  EXPECT_EQ(e.boost, 1.0);
  EXPECT_EQ(GpuExecModel::from_machine(m, 50).boost, m.gpu_gemm_boost_cap);

  const auto f = GpuFabric::from_machine(m);
  EXPECT_TRUE(f.same_node(0, 3));
  EXPECT_FALSE(f.same_node(3, 4));
  // Inter-node puts are far more expensive for large payloads.
  EXPECT_GT(f.put_time(0, 4, 1e6), 5 * f.put_time(0, 1, 1e6));
}

TEST(GpuSim, PhasesArePositiveAndConsistent) {
  const auto fs = make_system();
  const auto t = run(fs, 1, 4);
  EXPECT_GT(t.l_solve, 0);
  EXPECT_GT(t.u_solve, 0);
  EXPECT_GT(t.z_comm, 0);  // pz=4: allreduce happened
  EXPECT_NEAR(t.total, t.l_solve + t.z_comm + t.u_solve, 1e-12);
  EXPECT_EQ(t.l_finish.size(), 4u);
}

TEST(GpuSim, SingleGpuHasNoZComm) {
  const auto fs = make_system();
  const auto t = run(fs, 1, 1);
  EXPECT_DOUBLE_EQ(t.z_comm, 0.0);
}

TEST(GpuSim, GpuBeatsCpuBackend) {
  // The headline Fig 9-10 comparison: the GPU model against the runtime's
  // CPU solve of the same system on the same layout. Like the Pz-scaling
  // test below it needs the paper's regime, where occupancy rather than
  // the DAG's latency chain limits the GPU: on the tiny instance a lone
  // thread block (1/gpu_sms of the GPU's rate, plus its task overhead)
  // loses to a CPU core at 1 RHS.
  const auto fs = make_system(PaperMatrix::kS2D9pt2048, 4, MatrixScale::kSmall);
  const MachineModel m = MachineModel::perlmutter();
  for (const Idx nrhs : {Idx{1}, Idx{50}}) {
    const auto gpu = run(fs, 1, 4, nrhs, m);
    SolveConfig cfg;
    cfg.shape = {1, 1, 4};
    cfg.nrhs = nrhs;
    const std::vector<Real> b(static_cast<size_t>(fs.lu.n()) * nrhs, 1.0);
    const DistSolveOutcome cpu = solve_system_3d(fs, b, cfg, m);
    EXPECT_LT(gpu.total, cpu.makespan) << "nrhs=" << nrhs;
  }
}

TEST(GpuSim, ManyRhsImprovesGpuEfficiency) {
  // Per-RHS GPU time must drop as nrhs grows (task overhead amortizes) —
  // the reason the paper reports higher multi-RHS throughput.
  const auto fs = make_system();
  const auto t1 = run(fs, 1, 4, 1);
  const auto t50 = run(fs, 1, 4, 50);
  EXPECT_LT(t50.total / 50.0, t1.total);
}

TEST(GpuSim, PzScalingHelpsThenSaturates) {
  // 3D scaling (Fig 9-11): going from 1 to 4 grids must speed up the
  // modeled solve of a 2D-PDE matrix. The matrix must be large enough that
  // occupancy (total work / SMs), not the DAG critical path, limits the
  // single-GPU solve — the same regime the paper's matrices are in.
  const auto fs = make_system(PaperMatrix::kS2D9pt2048, 4, MatrixScale::kSmall);
  const auto t1 = run(fs, 1, 1);
  const auto t4 = run(fs, 1, 4);
  EXPECT_LT(t4.total, t1.total);
}

TEST(GpuSim, TwoDGpuStopsScalingAcrossNodes) {
  // Fig 11's red curve: with pz=1, growing px past one node (4 GPUs on
  // Perlmutter) hits the inter-node bandwidth cliff.
  const auto fs = make_system(PaperMatrix::kS2D9pt2048, 4);
  const auto t4 = run(fs, 4, 1);   // one full node
  const auto t8 = run(fs, 8, 1);   // two nodes
  // Crossing the node boundary must not give a speedup (paper: it slows).
  EXPECT_GT(t8.total, 0.95 * t4.total);
}

TEST(GpuSim, ThreeDScalesWherePxCannot) {
  // Fig 11's thesis: at equal GPU counts, 3D (pz) placement beats 2D (px)
  // placement once the 2D layout would leave the node.
  const auto fs = make_system(PaperMatrix::kS2D9pt2048, 4);
  const auto via_px = run(fs, 8, 1);   // 8 GPUs, 2D
  const auto via_pz = run(fs, 1, 8);   // 8 GPUs, 3D
  EXPECT_LT(via_pz.total, via_px.total);
}

TEST(GpuSim, MoreSmsNeverSlower) {
  const auto fs = make_system();
  MachineModel few = MachineModel::perlmutter();
  MachineModel many = few;
  few.gpu_sms = 4;
  few.gpu_flop_rate = 4 * (many.gpu_flop_rate / many.gpu_sms);  // same per-SM rate
  const auto t_few = run(fs, 1, 2, 1, few);
  const auto t_many = run(fs, 1, 2, 1, many);
  EXPECT_LE(t_many.total, t_few.total * 1.0001);
}

TEST(GpuSim, CrusherForbidsMultiGpuGrids) {
  const auto fs = make_system();
  GpuSolveConfig cfg;
  cfg.shape = {2, 1, 2};
  EXPECT_THROW(simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::crusher()),
               std::invalid_argument);
  cfg.shape = {1, 1, 2};  // allowed
  EXPECT_NO_THROW(simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::crusher()));
}

TEST(GpuSim, InvalidShapesThrow) {
  const auto fs = make_system();
  GpuSolveConfig cfg;
  cfg.shape = {1, 2, 2};  // py != 1
  EXPECT_THROW(simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::perlmutter()),
               std::invalid_argument);
  cfg.shape = {1, 1, 3};  // not a power of two
  EXPECT_THROW(simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::perlmutter()),
               std::invalid_argument);
  cfg.shape = {1, 1, 32};  // deeper than the tracked tree (levels=4)
  EXPECT_THROW(simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::perlmutter()),
               std::invalid_argument);
  cfg.shape = {0, 1, 2};  // no GPUs per grid
  EXPECT_THROW(simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::perlmutter()),
               std::invalid_argument);
  for (const int px : {1, 2}) {
    cfg.shape = {px, 1, 2};  // the GPU backend on a machine without GPUs
    EXPECT_THROW(simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::cori_haswell()),
                 std::invalid_argument)
        << "px=" << px;
  }
  cfg.shape = {1, 1, 2};
  for (const Idx nrhs : {0, -1}) {
    cfg.nrhs = nrhs;
    EXPECT_THROW(simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::perlmutter()),
                 std::invalid_argument)
        << "nrhs=" << nrhs;
  }
}

TEST(GpuSim, PerlmutterFasterThanCrusherGpu) {
  // The paper reports much higher CPU-GPU speedups on Perlmutter than on
  // Crusher; at equal layouts the Perlmutter model must be faster.
  const auto fs = make_system();
  const auto pm = run(fs, 1, 4, 1, MachineModel::perlmutter());
  const auto cr = run(fs, 1, 4, 1, MachineModel::crusher());
  EXPECT_LT(pm.total, cr.total);
}

TEST(GpuSim, TwoKernelNeverSlowerThanResidentSpin) {
  // The paper's WAIT+SOLVE design exists to stop spinning blocks from
  // holding SMs; under the same concurrency budget it can only help.
  const auto fs = make_system(PaperMatrix::kS2D9pt2048, 4, MatrixScale::kSmall);
  for (const auto& [px, pz] : {std::pair{1, 1}, std::pair{4, 1}, std::pair{2, 4}}) {
    GpuSolveConfig cfg;
    cfg.shape = {px, 1, pz};
    cfg.schedule = GpuScheduleMode::kResidentSpin;
    const auto naive = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::perlmutter());
    cfg.schedule = GpuScheduleMode::kTwoKernel;
    const auto two = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::perlmutter());
    EXPECT_LE(two.total, naive.total * 1.0001) << px << "x" << pz;
  }
}

TEST(GpuSim, SchedulesAgreeWhenSlotsAreAbundant) {
  // With more slots than block columns, holding a slot while spinning
  // costs nothing: the two disciplines must coincide.
  const auto fs = make_system();  // tiny matrix
  MachineModel m = MachineModel::perlmutter();
  m.gpu_sms = 100000;
  GpuSolveConfig cfg;
  cfg.shape = {1, 1, 2};
  cfg.schedule = GpuScheduleMode::kResidentSpin;
  const auto naive = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, m);
  cfg.schedule = GpuScheduleMode::kTwoKernel;
  const auto two = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, m);
  EXPECT_NEAR(naive.total, two.total, 1e-12);
}

TEST(GpuSim, DeterministicAcrossRuns) {
  const auto fs = make_system();
  const auto a = run(fs, 2, 4);
  const auto b = run(fs, 2, 4);
  EXPECT_DOUBLE_EQ(a.total, b.total);
  EXPECT_DOUBLE_EQ(a.l_solve, b.l_solve);
}

}  // namespace
}  // namespace sptrsv
