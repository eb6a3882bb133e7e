/// \file nrhs_sweep.cpp
/// \brief Extra experiment: right-hand-side amortization. The paper reports
/// 1 and 50 RHS endpoints (Fig 9-10); this sweep fills in the curve —
/// per-RHS time drops as per-message and per-task overheads amortize and
/// the solve kernels' GEMV turns into blocked GEMM (gemm_boost, CPU runtime
/// and GPU model alike), until the flop-bound floor.

#include "bench/bench_util.hpp"

using namespace sptrsv;
using namespace sptrsv::bench;

int main() {
  const MachineModel machine = MachineModel::perlmutter();
  SystemCache cache;
  const FactoredSystem& fs =
      cache.get(PaperMatrix::kS2D9pt2048, /*nd_levels=*/5, bench_scale());

  std::printf("# RHS sweep — proposed 3D SpTRSV, 1x1x16, %s\n", machine.name.c_str());
  Table t({"nrhs", "cpu total", "cpu per-RHS", "gpu total", "gpu per-RHS",
           "gpu speedup"});
  double cpu1 = 0, gpu1 = 0, cpu50 = 0, gpu50 = 0;
  for (const Idx nrhs : {Idx{1}, Idx{2}, Idx{5}, Idx{10}, Idx{20}, Idx{50}}) {
    const double cpu =
        run_cpu(fs, {1, 1, 16}, Algorithm3d::kProposed, machine, nrhs, TreeKind::kBinary,
                /*sparse_zreduce=*/true, "cpu_r" + std::to_string(nrhs))
            .makespan;
    GpuSolveConfig cfg;
    cfg.shape = {1, 1, 16};
    cfg.nrhs = nrhs;
    cfg.metrics = bench_json_enabled();
    const auto gpu_res = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, machine);
    bench_report_gpu("gpu_r" + std::to_string(nrhs), gpu_res);
    const double gpu = gpu_res.total;
    if (nrhs == 1) {
      cpu1 = cpu;
      gpu1 = gpu;
    }
    if (nrhs == 50) {
      cpu50 = cpu;
      gpu50 = gpu;
    }
    t.add_row({std::to_string(nrhs), fmt_time(cpu), fmt_time(cpu / nrhs),
               fmt_time(gpu), fmt_time(gpu / nrhs), fmt_ratio(cpu / gpu)});
  }
  t.print();
  std::printf("\nper-RHS amortization, 1 -> 50 RHS: cpu %.1fx, gpu %.1fx\n",
              cpu1 / (cpu50 / 50.0), gpu1 / (gpu50 / 50.0));
  return 0;
}
