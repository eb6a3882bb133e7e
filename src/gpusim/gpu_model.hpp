#pragma once
/// \file gpu_model.hpp
/// \brief GPU execution-model primitives for the NVSHMEM solve simulation.
///
/// The paper's GPU solves (Algorithms 4 and 5) cannot run here (no GPU, no
/// NVSHMEM), so `src/gpusim` reproduces them as a discrete-event execution
/// model that mirrors their structure (DESIGN.md §1):
///  - one thread block per supernode column; a resident block occupies one
///    bandwidth slot, so at most `gpu_sms` tasks run concurrently per GPU
///    at full aggregate bandwidth (see MachineModel::gpu_sms);
///  - a task costs a launch/spin overhead plus its GEMV/GEMM flops at the
///    per-SM rate (one thread block uses one SM's bandwidth);
///  - y(K)/x(K) forwarding between GPUs is a one-sided put whose cost
///    depends on whether the peer GPU shares the node (NVLink-class) or not
///    (inter-node fabric) — the bandwidth cliff that limits 2D GPU SpTRSV
///    to one node in the paper (Fig 11).
///
/// The numerics of the GPU algorithms are identical to the CPU path (same
/// supernodal kernels), so correctness is covered by the CPU solvers; this
/// model produces the *timing* of the GPU runs.

#include "runtime/machine.hpp"
#include "sparse/types.hpp"

namespace sptrsv {

/// Per-GPU execution parameters of one solve, derived from a MachineModel
/// and the solve's right-hand-side count.
struct GpuExecModel {
  int sms = 108;               ///< concurrently resident thread blocks
  double sm_flop_rate = 5e9;   ///< flops/s of one thread block (one SM), 1 RHS
  double task_overhead = 2e-6; ///< block scheduling / spin-wait cost (s)
  /// gemm_boost(nrhs, gpu_gemm_boost_cap): the multi-RHS kernels' rate
  /// gain over a 1-RHS GEMV (machine.hpp).
  double boost = 1.0;

  static GpuExecModel from_machine(const MachineModel& m, Idx nrhs) {
    GpuExecModel e;
    e.sms = m.gpu_sms;
    e.sm_flop_rate = m.gpu_flop_rate / m.gpu_sms;
    e.task_overhead = m.gpu_task_overhead;
    e.boost = gemm_boost(nrhs, m.gpu_gemm_boost_cap);
    return e;
  }

  /// Duration of one block-column task performing `flops` work.
  double task_time(double flops) const {
    return task_overhead + flops / (sm_flop_rate * boost);
  }
};

/// Maps world GPU indices to nodes and prices one-sided puts.
struct GpuFabric {
  double latency_intra = 1e-6;
  double latency_inter = 6e-6;
  double bw_intranode = 300e9;
  double bw_internode = 12.5e9;
  int gpus_per_node = 4;

  static GpuFabric from_machine(const MachineModel& m) {
    return {m.nvshmem_latency, m.nvshmem_latency_internode, m.bw_gpu_intranode,
            m.bw_gpu_internode, m.gpus_per_node};
  }

  bool same_node(int gpu_a, int gpu_b) const {
    return gpu_a / gpus_per_node == gpu_b / gpus_per_node;
  }

  /// Time for a one-sided put of `bytes` from gpu_a to gpu_b.
  double put_time(int gpu_a, int gpu_b, double bytes) const {
    if (same_node(gpu_a, gpu_b)) return latency_intra + bytes / bw_intranode;
    return latency_inter + bytes / bw_internode;
  }
};

}  // namespace sptrsv
