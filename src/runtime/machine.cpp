#include "runtime/machine.hpp"

namespace sptrsv {

MachineModel MachineModel::cori_haswell() {
  MachineModel m;
  m.name = "cori-haswell";
  // E5-2698v3 core: ~2.3 GHz, solve kernels are memory-bound GEMV; a few
  // Gflop/s sustained per core is representative.
  m.cpu_flop_rate = 3.0e9;
  m.mpi_overhead = 1.0e-6;
  m.net = {/*latency=*/1.5e-6, /*bandwidth=*/8.0e9};  // Cray Aries class
  // No GPUs on the Haswell partition; GPU fields left at defaults and
  // unused by the CPU benches.
  m.gpus_per_node = 0;
  return m;
}

MachineModel MachineModel::perlmutter() {
  MachineModel m;
  m.name = "perlmutter";
  m.cpu_flop_rate = 6.0e9;  // EPYC 7763 core
  m.mpi_overhead = 0.8e-6;
  m.net = {/*latency=*/1.8e-6, /*bandwidth=*/12.5e9};  // Slingshot 11 per rank
  // A100 sustained rate for 1-RHS supernodal GEMV (bandwidth-bound, partial
  // occupancy); calibrated so the modeled CPU->GPU speedups land in the
  // paper's 4.6x-6.5x range. Multi-RHS kernels gain the GEMM boost (see
  // gemm_boost). Calibrated against gpusim's deleted discrete-event CPU;
  // deliberately not retuned to the runtime (EXPERIMENTS.md, Fig 10).
  m.gpu_flop_rate = 1.1e11;
  m.gpu_sms = 24;   // bandwidth slots (see machine.hpp)
  m.gpu_gemm_boost_cap = 4.0;  // equal to the CPU cap (EXPERIMENTS.md, Fig 10)
  m.gpu_task_overhead = 1.5e-6;
  m.nvshmem_latency = 1.0e-6;
  m.nvshmem_latency_internode = 6.0e-6;
  m.bw_gpu_intranode = 300e9;  // NVLink3 per direction
  m.bw_gpu_internode = 12.5e9; // paper: 25 GB/s node, per GPU per direction
  m.gpus_per_node = 4;
  m.shmem_subcomm_support = true;
  return m;
}

MachineModel MachineModel::crusher() {
  MachineModel m;
  m.name = "crusher";
  m.cpu_flop_rate = 5.0e9;  // EPYC 7A53 core
  m.mpi_overhead = 0.8e-6;
  m.net = {/*latency=*/2.0e-6, /*bandwidth=*/12.5e9};
  // MI250X GCD: competitive peak but the paper observes much lower SpTRSV
  // CPU-GPU speedups on Crusher (up to 1.8x/2.9x vs 6.5x on Perlmutter),
  // which the lower sustained solve rate and higher task overhead model.
  // Calibrated against gpusim's deleted discrete-event CPU; deliberately
  // not retuned to the runtime (EXPERIMENTS.md, Fig 9).
  m.gpu_flop_rate = 0.28e11;
  m.gpu_sms = 12;   // bandwidth slots (see machine.hpp)
  m.gpu_gemm_boost_cap = 6.0;  // Crusher's 50-RHS speedups exceed 1-RHS (Fig 9)
  m.gpu_task_overhead = 4e-6;
  m.nvshmem_latency = 1.5e-6;
  m.nvshmem_latency_internode = 8.0e-6;
  m.bw_gpu_intranode = 200e9;   // Infinity Fabric class
  m.bw_gpu_internode = 12.5e9;
  m.gpus_per_node = 8;          // 4 MI250X = 8 GCDs, 1 rank per GCD
  m.shmem_subcomm_support = false;  // ROC-SHMEM limitation (paper §3.4)
  return m;
}

}  // namespace sptrsv
