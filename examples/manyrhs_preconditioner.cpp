/// \file manyrhs_preconditioner.cpp
/// \brief Domain scenario: applying an LU preconditioner to a block of 50
/// right-hand sides (block-Krylov / multi-source setting), comparing the
/// modeled CPU solve (the runtime) and GPU solve (gpusim) on 1 x 1 x Pz
/// layouts — the Fig 9/10 workload as a user-facing application.

#include <cstdio>
#include <random>
#include <vector>

#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "sparse/paper_matrices.hpp"

using namespace sptrsv;

int main() {
  const Idx nrhs = 50;
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kSmall);
  std::printf("Preconditioner application: n = %d, nrhs = %d\n", a.rows(),
              static_cast<int>(nrhs));
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/5);

  // Numerics: one real multi-RHS solve to confirm correctness.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<Real> uni(-1.0, 1.0);
  std::vector<Real> b(static_cast<size_t>(a.rows()) * nrhs);
  for (auto& v : b) v = uni(rng);
  const std::vector<Real> x = solve_system_seq(fs, b, nrhs);
  std::printf("reference residual over %d RHSs: %.2e\n\n", static_cast<int>(nrhs),
              relative_residual(a, x, b, nrhs));

  // Throughput: modeled CPU vs GPU application time as Pz grows.
  const MachineModel machine = MachineModel::perlmutter();
  std::printf("%-4s  %-12s  %-12s  %-8s  %-14s\n", "Pz", "cpu (s)", "gpu (s)",
              "speedup", "gpu RHS/sec");
  for (const int pz : {1, 4, 16}) {
    SolveConfig cpu_cfg;
    cpu_cfg.shape = {1, 1, pz};
    cpu_cfg.nrhs = nrhs;
    const double cpu = solve_system_3d(fs, b, cpu_cfg, machine).makespan;
    GpuSolveConfig gpu_cfg;
    gpu_cfg.shape = {1, 1, pz};
    gpu_cfg.nrhs = nrhs;
    const double gpu = simulate_solve_3d_gpu(fs.lu, fs.tree, gpu_cfg, machine).total;
    std::printf("%-4d  %-12.3e  %-12.3e  %-8.2f  %-14.0f\n", pz, cpu, gpu, cpu / gpu,
                nrhs / gpu);
  }
  std::printf("\nOn both, GEMV becomes blocked GEMM across the RHS block, and the\n"
              "GPU also amortizes its per-block task overhead: the effect behind\n"
              "Fig 9-10.\n");
  return 0;
}
