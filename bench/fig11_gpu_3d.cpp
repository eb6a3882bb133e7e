/// \file fig11_gpu_3d.cpp
/// \brief Reproduces Fig 11: proposed 3D SpTRSV on Perlmutter GPUs with
/// Px x 1 x Pz layouts (NVSHMEM-based multi-GPU 2D solves, Algorithm 5).
///
/// Key paper findings regenerated here:
///  - the 2D GPU algorithm (Pz = 1) stops scaling at P = 8 GPUs, when
///    NVSHMEM puts start crossing the node boundary (300 vs 12.5 GB/s);
///  - at a fixed GPU count, growing Pz beats growing Px;
///  - the proposed 3D GPU SpTRSV scales to 256 GPUs (Px=4, Pz=64).
/// One curve per Pz; x-axis is the total GPU count P = Px * Pz. The CPU
/// reference runs the same layouts on the runtime (solve_sptrsv_3d).

#include "bench/bench_util.hpp"

using namespace sptrsv;
using namespace sptrsv::bench;

int main() {
  const MachineModel machine = MachineModel::perlmutter();
  const std::vector<PaperMatrix> matrices{
      PaperMatrix::kS1Mat0253872, PaperMatrix::kNlpkkt80, PaperMatrix::kGa19As19H42,
      PaperMatrix::kDielFilterV3real};
  const std::vector<int> pz_sweep = full_sweep()
                                        ? std::vector<int>{1, 4, 16, 64}
                                        : std::vector<int>{1, 16, 64};
  SystemCache cache;

  std::printf("# Fig 11 — proposed 3D GPU SpTRSV on %s, Px x 1 x Pz, 1 RHS\n",
              machine.name.c_str());
  std::printf("# Pz=1,Px>1 is the NVSHMEM 2D GPU algorithm [12]; Px<=4 keeps\n");
  std::printf("# puts inside one node except the Pz=1 curve probing Px=8.\n");
  for (const PaperMatrix which : matrices) {
    const FactoredSystem& fs = cache.get(which, /*nd_levels=*/6, bench_scale());
    std::printf("\n## %s (n=%d)\n", paper_matrix_name(which).c_str(), fs.lu.n());
    Table t({"Px", "Pz", "P(gpus)", "gpu total", "cpu total", "gpu/2D-best"});

    // 2D GPU curve (Pz = 1): Px up to 8 shows the node-boundary wall.
    double best_2d = 1e300;
    std::map<std::pair<int, int>, double> gpu_time;
    for (const int pz : pz_sweep) {
      for (const int px : {1, 2, 4, 8, 16}) {
        if (px > 4 && pz != 1) continue;  // paper confines puts to a node
        GpuSolveConfig cfg;
        cfg.shape = {px, 1, pz};
        cfg.metrics = bench_json_enabled();
        const auto gpu = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, machine);
        const std::string stem_tail = paper_matrix_name(which) + "_" +
                                      std::to_string(px) + "x1x" +
                                      std::to_string(pz);
        bench_report_gpu("gpu_" + stem_tail, gpu);
        const DistSolveOutcome cpu =
            run_cpu(fs, {px, 1, pz}, Algorithm3d::kProposed, machine, 1,
                    TreeKind::kBinary, /*sparse_zreduce=*/true, "cpu_" + stem_tail);
        gpu_time[{px, pz}] = gpu.total;
        if (pz == 1) best_2d = std::min(best_2d, gpu.total);
        t.add_row({std::to_string(px), std::to_string(pz), std::to_string(px * pz),
                   fmt_time(gpu.total), fmt_time(cpu.makespan),
                   pz == 1 ? "-" : fmt_ratio(best_2d / gpu.total)});
      }
    }
    t.print();
    const double at_256 = gpu_time.count({4, 64}) ? gpu_time[{4, 64}] : 0;
    if (at_256 > 0) {
      std::printf("-> 256-GPU (4x1x64) vs best 2D GPU (<=8 GPUs): %s faster\n",
                  fmt_ratio(best_2d / at_256).c_str());
    }
  }
  return 0;
}
