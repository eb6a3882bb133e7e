#pragma once
/// \file supernodal_lu.hpp
/// \brief Supernodal LU factor storage and the numeric factorization.
///
/// The solver consumes exactly what the paper assumes from SuperLU_DIST's 3D
/// factorization (§2.1): supernodal L panels (full rows per block), U row
/// panels (equal-length columns per block — the paper's simplification of
/// the skyline format), and precomputed inverted diagonal blocks
/// L(K,K)^{-1} / U(K,K)^{-1}.

#include <vector>

#include "factor/dense.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/csr.hpp"
#include "symbolic/block_pattern.hpp"

namespace sptrsv {

/// LU factors of a symmetric-pattern matrix in supernodal block form.
///
/// Per supernode K with width w and panel_rows r:
///  - `diag[K]`:      w x w packed LU of the diagonal block (L unit-lower).
///  - `diag_linv[K]`: w x w full inv(L_KK) (explicit unit diagonal).
///  - `diag_uinv[K]`: w x w upper-triangular inv(U_KK).
///  - `lpanel[K]`:    r x w column-major; block L(I,K) occupies rows
///                    [below_offset[K][i], +width(I)) where I = below[K][i].
///  - `upanel[K]`:    w x r column-major; block U(K,I) occupies columns
///                    [below_offset[K][i], +width(I)).
struct SupernodalLU {
  SymbolicStructure sym;
  std::vector<std::vector<Real>> diag;
  std::vector<std::vector<Real>> diag_linv;
  std::vector<std::vector<Real>> diag_uinv;
  std::vector<std::vector<Real>> lpanel;
  std::vector<std::vector<Real>> upanel;

  Idx n() const { return sym.n; }
  Idx num_supernodes() const { return sym.num_supernodes(); }

  /// Reconstructs the dense n x n matrix L*U (small-n test helper).
  std::vector<Real> reconstruct_dense() const;

  /// Total floating-point operation count of one L-solve + U-solve with
  /// `nrhs` right-hand sides (2*flops of all block GEMMs + diagonal ops).
  double solve_flops(Idx nrhs) const;
};

/// Numeric right-looking supernodal LU factorization. `a` must have a
/// symmetric pattern and a full diagonal; no pivoting is performed, so the
/// caller is responsible for numerical viability (the library's generators
/// produce diagonally dominant matrices). Throws std::runtime_error on a
/// zero or non-finite pivot, and std::invalid_argument naming the row and
/// column of the first NaN or infinite value of `a`.
SupernodalLU factor_supernodal(const CsrMatrix& a, SymbolicStructure sym);

/// Full pipeline convenience: nested-dissection order (with `nd_levels`
/// tracked levels), symbolic analysis, numeric factorization. Returns the
/// factor plus the permutation used (new -> old).
struct FactoredSystem {
  SupernodalLU lu;
  std::vector<Idx> perm;  ///< new -> old
  NdTree tree;            ///< tracked separator tree (see ordering/)
};
FactoredSystem analyze_and_factor(const CsrMatrix& a, int nd_levels,
                                  Idx max_supernode_width = 96);

/// Expert-level pipeline options. `supernode.forced_breaks` is overwritten
/// with the ND tree node boundaries (the 3D layout requires them).
struct AnalyzeOptions {
  NdOptions nd;
  SupernodeOptions supernode;
};
FactoredSystem analyze_and_factor(const CsrMatrix& a, const AnalyzeOptions& opt);

}  // namespace sptrsv
