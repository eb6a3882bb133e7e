#pragma once
/// \file sptrsv3d.hpp
/// \brief The 3D SpTRSV algorithms: the paper's proposed one-synchronization
/// algorithm (Algorithm 1) and the baseline level-by-level algorithm [39].
///
/// Both run on a Px x Py x Pz layout (Fig 1): the world communicator is
/// split into Pz 2D grids of Px x Py ranks plus "z-line" communicators
/// joining the same (x,y) position across grids. Grid z handles L^z/U^z —
/// the submatrix of its leaf elimination-tree node and all replicated
/// ancestors.
///
///  - Proposed (§3.1-3.2): every grid runs ONE whole-matrix 2D L-solve on a
///    zero-masked RHS (replicated computation), a single sparse allreduce
///    completes the ancestor solutions (the only inter-grid
///    synchronization), then one whole-matrix 2D U-solve.
///  - Baseline [39] (§2.2): grids solve one elimination-tree node per
///    level, exchanging partial sums pairwise between grids after every
///    level (O(log Pz) inter-grid synchronizations; half the active grids
///    go idle at each level).

#include <vector>

#include "comm/sparse_allreduce.hpp"
#include "core/solver2d.hpp"
#include "dist/layout.hpp"
#include "factor/supernodal_lu.hpp"
#include "ordering/nested_dissection.hpp"
#include "runtime/cluster.hpp"

namespace sptrsv {

/// Which 3D algorithm to run.
enum class Algorithm3d {
  kBaseline,  ///< level-by-level [39]
  kProposed,  ///< Algorithm 1 (one inter-grid sync, sparse allreduce)
};

/// Solve configuration.
struct SolveConfig {
  Grid3dShape shape;
  Algorithm3d algorithm = Algorithm3d::kProposed;
  /// Intra-grid communication shape: binary trees (the paper's latency
  /// optimization, NEW3DSOLVETREECOMM) or flat fan-out (ablation).
  TreeKind tree = TreeKind::kBinary;
  /// Inter-grid reduction flavor: the sparse allreduce of Algorithm 2 or
  /// the naive per-node dense allreduce (ablation). Proposed algorithm only.
  bool sparse_zreduce = true;
  Idx nrhs = 1;
  /// Runtime scheduling: deterministic token-handoff mode and the
  /// perturbation seed (see RunOptions in runtime/cluster.hpp).
  RunOptions run;
};

/// Per-rank phase timing (virtual seconds), split by the paper's breakdown
/// categories within each phase.
struct RankPhaseTimes {
  double l_fp = 0, l_xy = 0, l_z = 0;  ///< L-solve phase
  double z_time = 0;                   ///< inter-grid allreduce (proposed)
  double u_fp = 0, u_xy = 0, u_z = 0;  ///< U-solve phase
  double total = 0;                    ///< rank's final virtual time

  double l_solve() const { return l_fp + l_xy; }  ///< Fig 7-8 convention
  double u_solve() const { return u_fp + u_xy; }  ///< (Z-comm excluded)
};

/// Outcome of a distributed solve.
struct DistSolveOutcome {
  /// Solution in the factor's (permuted) row order, n x nrhs column-major.
  std::vector<Real> x;
  /// Per-world-rank phase times.
  std::vector<RankPhaseTimes> rank_times;
  /// Raw runtime statistics (category times, message/byte counts) — feeds
  /// Cluster::Result::fingerprint() for repeatability checks.
  Cluster::Result run_stats;
  /// Modeled makespan (max total over ranks).
  double makespan = 0;
  double mean(double RankPhaseTimes::* field) const;
  double max(double RankPhaseTimes::* field) const;
  double min(double RankPhaseTimes::* field) const;
};

/// Runs the selected 3D SpTRSV on `machine` and returns the solution (in
/// permuted order) plus modeled timings. `b` is n x nrhs column-major in
/// the factor's permuted order. Checks shape constraints (px and py at
/// least 1; pz a power of two not exceeding the tracked tree's leaves; the
/// machine must allow the layout) and that nrhs is at least 1.
DistSolveOutcome solve_sptrsv_3d(const SupernodalLU& lu, const NdTree& tree,
                                 std::span<const Real> b, const SolveConfig& cfg,
                                 const MachineModel& machine);

/// Convenience wrapper around a FactoredSystem: permutes b in, solves, and
/// permutes x back to the original row order.
DistSolveOutcome solve_system_3d(const FactoredSystem& fs, std::span<const Real> b,
                                 const SolveConfig& cfg, const MachineModel& machine);

/// Outcome of a residual-verified solve (docs/ROBUSTNESS.md §SDC).
struct VerifiedSolveOutcome {
  DistSolveOutcome solve;     ///< the accepted (possibly repaired) solve
  Real residual = 0.0;        ///< relative max-norm residual of solve.x
  bool repaired = false;      ///< degraded-mode refinement repair engaged
  Idx repair_iterations = 0;  ///< refinement iterations the repair spent
};

/// solve_system_3d plus the end-of-solve verification gate: evaluates the
/// relative max-norm residual ||A x - b||_inf / ||b||_inf against
/// kSdcResidualTol, pricing the check onto the fault ledger
/// (each rank's 1/P share of the SpMV plus a max-reduce tree — the clean
/// ledger never moves). A residual above the gate means silent corruption
/// survived the solve (ABFT off, or an uncorrectable fault): with
/// RunOptions::sdc_repair the solve degrades gracefully into iterative
/// refinement (iterations and modeled cost recorded on the SdcStats ledger);
/// otherwise a structured FaultError with FaultKind::kSilentCorruption is
/// thrown. `a` is the original matrix in original row order, `b` likewise.
VerifiedSolveOutcome solve_system_3d_verified(const CsrMatrix& a,
                                              const FactoredSystem& fs,
                                              std::span<const Real> b,
                                              const SolveConfig& cfg,
                                              const MachineModel& machine);

}  // namespace sptrsv
