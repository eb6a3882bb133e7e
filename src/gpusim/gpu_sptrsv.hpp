#pragma once
/// \file gpu_sptrsv.hpp
/// \brief Discrete-event timing simulation of the proposed GPU 3D SpTRSV
/// (paper §3.4, Algorithms 4-5; Figures 9-11).
///
/// The simulated algorithm is the proposed 3D algorithm with GPU-resident
/// 2D solves: every grid z runs an in-kernel message-driven L-solve of L^z
/// (one thread block per supernode column, NVSHMEM puts along the binary
/// broadcast trees), the grids join in the MPI-based sparse allreduce, then
/// the U-solve mirrors the L-solve. Layouts are Px x 1 x Pz as in the
/// paper's GPU experiments (the reduction-tree direction is slower on GPUs,
/// so Py = 1 gives the best performance per [12]); Px = 1 covers the
/// Crusher configurations where ROC-SHMEM forbids subcommunicators.

#include <memory>
#include <vector>

#include "comm/trees.hpp"
#include "dist/layout.hpp"
#include "factor/supernodal_lu.hpp"
#include "gpusim/gpu_model.hpp"
#include "metrics/metrics.hpp"
#include "ordering/nested_dissection.hpp"
#include "runtime/machine.hpp"

namespace sptrsv {

class Trace;  // trace/trace.hpp

/// In-kernel scheduling discipline (paper §3.4). NVSHMEM point-to-point
/// synchronization caps resident thread blocks at the SM count; the paper
/// works around it with two kernels (a single-block WAIT kernel plus the
/// SOLVE kernel) so blocks need not spin while non-resident work is
/// pending. The naive single-kernel alternative launches blocks in
/// elimination order and lets resident blocks spin-wait while HOLDING
/// their slot — "that limitation would significantly restrict SpTRSV
/// concurrency". Both are modeled; `bench/ablation_gpu_wait_kernel`
/// quantifies the difference.
enum class GpuScheduleMode {
  kTwoKernel,     ///< the paper's WAIT+SOLVE design: blocks run when ready
  kResidentSpin,  ///< naive: blocks admitted in order, spin while resident
};

/// Configuration of one modeled solve. The model times a fault-free solve
/// and holds no numeric state, so it has no fault or ABFT knobs: those run
/// on the CPU runtime (docs/ROBUSTNESS.md).
struct GpuSolveConfig {
  Grid3dShape shape;  ///< py must be 1
  Idx nrhs = 1;
  GpuScheduleMode schedule = GpuScheduleMode::kTwoKernel;
  TreeKind tree = TreeKind::kBinary;
  /// Record per-task/per-put events into GpuSolveTimes::trace. The GPU
  /// sim's task slices overlap (SM slots), so the trace is export-only:
  /// Trace::contiguous() is false and critical_path() refuses it.
  bool trace = false;
  /// Build GpuSolveTimes::metrics: per-world-GPU counters (tasks, puts,
  /// put bytes by category) in the same registry taxonomy as the cluster
  /// runtime. Like the trace flag, it never changes modeled timings.
  bool metrics = false;
};

/// Modeled timings (seconds), makespan-style (max over GPUs/ranks).
struct GpuSolveTimes {
  double l_solve = 0;  ///< 2D L-solve phase
  double z_comm = 0;   ///< inter-grid sparse allreduce
  double u_solve = 0;  ///< 2D U-solve phase
  double total = 0;
  /// Per-world-GPU completion times of each phase (diagnostics).
  std::vector<double> l_finish;
  std::vector<double> u_finish;
  /// Event trace (Perfetto export only); non-null iff GpuSolveConfig::trace.
  std::shared_ptr<const Trace> trace;
  /// Per-GPU metrics report; non-null iff GpuSolveConfig::metrics.
  std::shared_ptr<const MetricsReport> metrics;
};

/// Runs the discrete-event model and returns the phase timings. Requires
/// `px >= 1` and `nrhs >= 1`, and enforces the paper's platform
/// constraints: `py == 1`; a machine with GPUs (`gpus_per_node >= 1`); and
/// `px == 1` on machines without SHMEM subcommunicator support
/// (Crusher/ROC-SHMEM). Violations throw std::invalid_argument. The CPU
/// reference of Figs 9-11 is the runtime's solve_sptrsv_3d on the same
/// layout (core/sptrsv3d.hpp).
GpuSolveTimes simulate_solve_3d_gpu(const SupernodalLU& lu, const NdTree& tree,
                                    const GpuSolveConfig& cfg,
                                    const MachineModel& machine);

}  // namespace sptrsv
