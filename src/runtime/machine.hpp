#pragma once
/// \file machine.hpp
/// \brief Performance-model parameter sets for the paper's three machines.
///
/// The reproduction runs on one box, so wall-clock time at 2048 ranks is
/// meaningless; instead every rank carries a virtual clock advanced by a
/// LogGP-style cost model parameterized per machine. Parameters follow the
/// hardware description in §4 / Appendix A of the paper (Cray Aries and
/// Slingshot latencies/bandwidths, A100/MI250X rates, 4 GPUs per node,
/// NVLink 300 GB/s vs inter-node 12.5 GB/s per direction per GPU). Absolute
/// accuracy is not the goal — regime boundaries (latency-bound DAG chains,
/// the intra/inter-node GPU bandwidth cliff) are.

#include <algorithm>
#include <cmath>
#include <string>

#include "runtime/abft.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/perturbation.hpp"
#include "runtime/reliable.hpp"
#include "sparse/types.hpp"

namespace sptrsv {

/// Multi-RHS GEMM efficiency: a 1-RHS solve kernel is a bandwidth-bound
/// GEMV; with `nrhs` right-hand sides it becomes a blocked GEMM (register
/// and cache blocking on a CPU core, shared-memory MAGMA-style on a GPU,
/// paper §3.4) whose arithmetic intensity, and thus sustained rate, rises
/// with nrhs until the compute-bound `cap`. Exactly 1 at nrhs = 1.
inline double gemm_boost(Idx nrhs, double cap) {
  return std::min(cap, std::pow(static_cast<double>(nrhs), 0.4));
}

/// gemm_boost cap of a CPU core (Comm::compute): its GEMM approaches peak.
inline constexpr double kCoreGemmBoostCap = 4.0;

/// One point-to-point link: first-byte latency plus stream bandwidth.
struct LinkParams {
  double latency = 1e-6;       ///< seconds to first byte
  double bandwidth = 10.0e9;   ///< bytes/second
};

/// Machine performance model used by the virtual clock.
struct MachineModel {
  std::string name;

  // --- CPU side ---
  double cpu_flop_rate = 5.0e9;   ///< sustained flops/s per rank (one core), 1 RHS
  double mpi_overhead = 0.5e-6;   ///< CPU send/recv software overhead (s)
  LinkParams net;                 ///< inter-rank MPI network link

  // --- GPU side ---
  double gpu_flop_rate = 5.0e11;  ///< sustained flops/s per GPU (solve kernels)
  /// Concurrency slots of the execution model. Solve kernels are
  /// memory-bound, and a GPU's bandwidth saturates with O(10) resident
  /// blocks, so this is the bandwidth-slot count (aggregate = gpu_flop_rate
  /// when all slots are busy; a lone thread block gets 1/slots of it), not
  /// the physical SM count.
  int gpu_sms = 16;
  /// Saturation cap of the multi-RHS GEMM-efficiency boost for GPU solve
  /// kernels (see gemm_boost). CPU cores cap at kCoreGemmBoostCap.
  double gpu_gemm_boost_cap = 4.0;
  double gpu_task_overhead = 2e-6;///< per block-column scheduling/spin cost (s)
  double nvshmem_latency = 1e-6;  ///< one-sided put latency, same node (s)
  /// One-sided put latency crossing nodes (NIC + network); several times
  /// the NVLink latency — with the bandwidth cliff below, this is what
  /// stops the 2D GPU algorithm at one node (paper Fig 11).
  double nvshmem_latency_internode = 6e-6;
  double bw_gpu_intranode = 300e9;///< NVLink-class bandwidth (bytes/s)
  double bw_gpu_internode = 12.5e9;///< Slingshot per-GPU bandwidth (bytes/s)
  int gpus_per_node = 4;
  /// ROC-SHMEM (Crusher) lacks MPI subcommunicator support, so 2D grids
  /// larger than 1x1 are not allowed on that machine (paper §3.4).
  bool shmem_subcomm_support = true;

  /// Seeded fault injection: timing knobs (latency jitter, link degradation
  /// schedules, compute skew, delivery delays) perturb the clean clock;
  /// delivery knobs (drop/dup/corrupt/reorder, rank stalls) engage the
  /// reliable transport (docs/ROBUSTNESS.md). Inactive by default; the seed
  /// driving its draws lives in RunOptions (see cluster.hpp).
  PerturbationModel perturb;

  /// Reliable-transport retry budget. Only consulted while
  /// perturb.delivery_active().
  TransportOptions transport;

  /// Crash-stop recovery: the spare pool and degradation placement
  /// (docs/ROBUSTNESS.md). Only consulted while perturb.crash_active().
  RecoveryModel recovery;

  /// ABFT recomputation re-failure probability (docs/ROBUSTNESS.md). Only
  /// consulted while RunOptions::abft or perturb.sdc_active().
  AbftModel abft;

  /// Cori Haswell: Xeon E5-2698v3 cores, Cray Aries. CPU-only experiments
  /// (paper Fig 4-8).
  static MachineModel cori_haswell();
  /// Perlmutter GPU partition: EPYC 7763 + 4x A100, Slingshot 11
  /// (paper Fig 10-11).
  static MachineModel perlmutter();
  /// Crusher: EPYC 7A53 + 4x MI250X (8 GCDs), Slingshot; no ROC-SHMEM
  /// subcommunicators (paper Fig 9).
  static MachineModel crusher();
};

}  // namespace sptrsv
