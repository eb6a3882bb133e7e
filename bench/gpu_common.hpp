#pragma once
/// \file gpu_common.hpp
/// \brief Shared driver for the Fig 9 / Fig 10 GPU-vs-CPU benches.

#include "bench/bench_util.hpp"

namespace sptrsv::bench {

/// Splits a runtime solve's makespan the way gpusim reports its phases:
/// L ends at the latest rank clock after the L-solve, Z at the latest clock
/// after the inter-grid allreduce, and U runs on to the makespan.
struct PhaseSplit {
  double l = 0, z = 0, u = 0;
};

inline PhaseSplit phase_split(const DistSolveOutcome& out) {
  double l_end = 0, z_end = 0;
  for (const RankPhaseTimes& r : out.rank_times) {
    const double l = r.l_fp + r.l_xy + r.l_z;
    l_end = std::max(l_end, l);
    z_end = std::max(z_end, l + r.z_time);
  }
  return {l_end, z_end - l_end, out.makespan - z_end};
}

/// Prints total / L-solve / U-solve / Z-comm modeled times for the proposed
/// 3D SpTRSV with CPU solves (the runtime) and GPU solves (gpusim) on
/// 1 x 1 x Pz layouts, for 1 and 50 RHSs — the Fig 9 (Crusher) / Fig 10
/// (Perlmutter) series. Also reports the per-configuration CPU/GPU speedup
/// and its maximum.
inline void run_gpu_1x1xpz_figure(const char* figure, const MachineModel& machine,
                                  const std::vector<PaperMatrix>& matrices,
                                  const char* paper_speedups) {
  const std::vector<int> pz_sweep = full_sweep()
                                        ? std::vector<int>{1, 2, 4, 8, 16, 32, 64}
                                        : std::vector<int>{1, 4, 16, 64};
  SystemCache cache;
  std::printf("# %s — proposed 3D SpTRSV on %s, 1x1xPz layouts, CPU vs GPU solves\n",
              figure, machine.name.c_str());
  for (const PaperMatrix which : matrices) {
    const FactoredSystem& fs = cache.get(which, /*nd_levels=*/6, bench_scale());
    for (const Idx nrhs : {Idx{1}, Idx{50}}) {
      std::printf("\n## %s, nrhs = %d\n", paper_matrix_name(which).c_str(),
                  static_cast<int>(nrhs));
      Table t({"Pz", "cpu total", "cpu L", "cpu U", "cpu Z", "gpu total", "gpu L",
               "gpu U", "gpu Z", "speedup"});
      double best = 0;
      for (const int pz : pz_sweep) {
        const std::string stem_tail = paper_matrix_name(which) + "_1x1x" +
                                      std::to_string(pz) + "_r" +
                                      std::to_string(nrhs);
        const DistSolveOutcome cpu =
            run_cpu(fs, {1, 1, pz}, Algorithm3d::kProposed, machine, nrhs,
                    TreeKind::kBinary, /*sparse_zreduce=*/true, "cpu_" + stem_tail);
        GpuSolveConfig cfg;
        cfg.shape = {1, 1, pz};
        cfg.nrhs = nrhs;
        cfg.trace = !bench_trace_dir().empty();
        cfg.metrics = bench_json_enabled();
        const auto gpu = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, machine);
        maybe_dump_trace(gpu.trace.get(), "gpu_" + stem_tail);
        bench_report_gpu("gpu_" + stem_tail, gpu);
        const PhaseSplit c = phase_split(cpu);
        const double speedup = cpu.makespan / gpu.total;
        best = std::max(best, speedup);
        t.add_row({std::to_string(pz), fmt_time(cpu.makespan), fmt_time(c.l),
                   fmt_time(c.u), fmt_time(c.z), fmt_time(gpu.total),
                   fmt_time(gpu.l_solve), fmt_time(gpu.u_solve), fmt_time(gpu.z_comm),
                   fmt_ratio(speedup)});
      }
      t.print();
      std::printf("-> max CPU->GPU speedup: %s (paper, across matrices: %s)\n",
                  fmt_ratio(best).c_str(), paper_speedups);
    }
  }
}

}  // namespace sptrsv::bench
