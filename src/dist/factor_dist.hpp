#pragma once
/// \file factor_dist.hpp
/// \brief Distributed-memory supernodal LU factorization on a 2D
/// block-cyclic grid (SuperLU_DIST-style right-looking fan-out).
///
/// The paper consumes LU factors produced by SuperLU_DIST's distributed
/// factorization; this module reproduces that substrate on the library's
/// runtime. Each step K: the diagonal owner factors D_K and fans it out to
/// K's panel owners; column-K owners form L(:,K), row-K owners form
/// U(K,:); panels are forwarded along process rows/columns; every rank
/// applies the Schur updates to the blocks it owns. Ownership follows
/// layout.hpp's cyclic map, so update targets are always rank-local.
///
/// Numerically the result matches the sequential `factor_supernodal`
/// (same update order per block), which the tests assert.

#include "dist/layout.hpp"
#include "factor/supernodal_lu.hpp"
#include "runtime/cluster.hpp"

namespace sptrsv {

/// Communication/time statistics of a distributed factorization.
struct DistFactorStats {
  double makespan = 0;          ///< modeled factorization time (max over ranks)
  double mean_fp = 0;           ///< rank-mean kernel time
  double mean_comm = 0;         ///< rank-mean communication time
  std::int64_t total_messages = 0;
  std::int64_t total_bytes = 0;
};

/// Factorizes `a` (symmetric pattern, full diagonal) under the symbolic
/// structure `sym` on a modeled `shape.px x shape.py` process grid of
/// `machine`. Returns the factors; `stats`, if non-null, receives the
/// modeled cost. Throws on zero or non-finite pivots and on non-finite
/// input values, like the sequential factorization.
SupernodalLU factor_supernodal_distributed(const CsrMatrix& a, SymbolicStructure sym,
                                           Grid2dShape shape,
                                           const MachineModel& machine,
                                           DistFactorStats* stats = nullptr);

}  // namespace sptrsv
