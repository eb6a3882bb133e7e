#pragma once
/// \file solver2d.hpp
/// \brief Message-driven distributed 2D triangular solves (paper §3.3,
/// Algorithm 3 generalized from Px x 1 to Px x Py).
///
/// The L-solve is a data-driven loop: whoever owns the diagonal of a
/// supernode K computes y(K) once all partial sums have been reduced to it,
/// then sends y(K) down K's broadcast tree; owners of blocks L(I,K) fold
/// y(K) into their local lsum(I) and push it up I's reduction tree. All
/// bookkeeping (`fmod` in the paper) is precomputed in the Solve2dPlan.
/// The U-solve is the same algorithm with block rows and block columns
/// swapped: both entry points run one solve body over the roles that
/// Solve2dPlan::view assigns, and differ only in names, where a block and
/// its diagonal inverse are stored, and the U-solve's seeded sources.
///
/// The same routine serves both 3D algorithms: the proposed one calls it
/// once per grid on the whole L^z/U^z, the baseline calls it per
/// elimination-tree node with partial sums for replicated ancestors handed
/// back through `external_lsum` / fed forward through `x_external`.

#include <unordered_map>
#include <vector>

#include "dist/solve_plan.hpp"
#include "runtime/cluster.hpp"

namespace sptrsv {

/// Supernode id -> packed (width x nrhs) column-major values.
using VecMap = std::unordered_map<Idx, std::vector<Real>>;

/// Result of a distributed 2D L-solve on one grid.
struct LSolve2dResult {
  /// y(K) for every solved column K whose diagonal this rank owns.
  VecMap y;
  /// Accumulated partial sums lsum(I) for external rows I whose diagonal
  /// position this rank holds (handed to inter-grid reduction).
  VecMap external_lsum;
};

/// Result of a distributed 2D U-solve.
struct USolve2dResult {
  /// x(K) for every solved column K whose diagonal this rank owns.
  VecMap x;
};

/// Distributed L-solve over `plan` on the 2D communicator `grid`.
///  - `b_local`: RHS pieces b(K) for solved columns this rank diag-owns
///    (absent entries are treated as zero — the Algorithm 1 masking).
///  - `lsum_in`: initial partial sums for solved columns this rank
///    diag-owns (baseline: reductions from lower tree levels).
///  - `tag_base`: disambiguates concurrent solves on one communicator
///    (baseline levels overlap in time across ranks).
/// Communication cost is charged to `cat`; GEMV/GEMM to FP.
LSolve2dResult solve_l_2d(Comm& grid, const Solve2dPlan& plan, const VecMap& b_local,
                          const VecMap& lsum_in, Idx nrhs, int tag_base,
                          TimeCategory cat = TimeCategory::kXyComm);

/// Distributed U-solve over `plan`.
///  - `y_local`: RHS pieces y(K) for solved columns this rank diag-owns.
///  - `x_external`: already-known solutions of external rows this rank
///    diag-owns (baseline: received from the parent grid); they are
///    broadcast to block owners at startup.
USolve2dResult solve_u_2d(Comm& grid, const Solve2dPlan& plan, const VecMap& y_local,
                          const VecMap& x_external, Idx nrhs, int tag_base,
                          TimeCategory cat = TimeCategory::kXyComm);

}  // namespace sptrsv
