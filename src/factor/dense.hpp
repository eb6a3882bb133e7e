#pragma once
/// \file dense.hpp
/// \brief Small dense kernels used inside supernodal panels.
///
/// All matrices are column-major and packed (leading dimension = number of
/// rows) unless an explicit `ld` parameter says otherwise. Operands are
/// bounded by the supernode width cap, so the GEMM and TRSM kernels tile
/// registers but not caches, and no external BLAS is needed.
///
/// Every kernel fixes its summation order, so results are bitwise
/// reproducible and independent of the tile shape:
///  - GEMM: C(i,j) adds A(i,p) * (+/-B(p,j)) one p at a time, in ascending
///    p. A column of B that is all zero is skipped, since it leaves C(:,j)
///    unchanged. Zero entries inside other columns are not skipped: for
///    finite A, adding A(i,p) * 0 leaves C(i,j) as it was unless C(i,j) is
///    -0.0, which only an input matrix that stores -0.0 can produce.
///  - trsm_right_upper: X(i,j) subtracts X(i,k) * U(k,j) for ascending
///    k < j, skipping U(k,j) == 0, then multiplies by 1 / U(j,j).
///  - trsm_left_unit_lower: X(i,j) subtracts L(i,k) * X(k,j) for ascending
///    k < i, skipping X(k,j) == 0.
///
/// tests/test_dense.cpp checks each kernel bit for bit against plain
/// reference loops with these orders.

#include <span>

#include "sparse/types.hpp"

namespace sptrsv {

/// C (m x n) += A (m x k) * B (k x n); packed column-major.
void gemm_plus(Idx m, Idx k, Idx n, std::span<const Real> a, std::span<const Real> b,
               std::span<Real> c);

/// C (m x n, ld ldc) -= A (m x k) * B (k x n, ld ldb). Used to update a
/// block embedded in a taller panel.
void gemm_minus_ld(Idx m, Idx k, Idx n, std::span<const Real> a, Idx lda,
                   std::span<const Real> b, Idx ldb, std::span<Real> c, Idx ldc);

/// C (m x n, ld ldc) += A (m x k, ld lda) * B (k x n, ld ldb).
void gemm_plus_ld(Idx m, Idx k, Idx n, std::span<const Real> a, Idx lda,
                  std::span<const Real> b, Idx ldb, std::span<Real> c, Idx ldc);

/// In-place unpivoted LU (Doolittle): on return the strict lower triangle
/// holds L (unit diagonal implied) and the upper triangle holds U.
/// Returns false if a zero or non-finite pivot is hit (caller treats as
/// singular).
bool lu_unpivoted_inplace(Idx n, std::span<Real> a);

/// inv(L) for the unit-lower factor packed in `a` (strict lower + implied
/// unit diagonal); writes a full n x n matrix with explicit unit diagonal.
void invert_unit_lower(Idx n, std::span<const Real> a, std::span<Real> out);

/// inv(U) for the upper factor packed in `a` (upper triangle incl diagonal);
/// writes a full n x n upper-triangular matrix.
void invert_upper(Idx n, std::span<const Real> a, std::span<Real> out);

/// B (m x n) := B * inv(U) where U is the upper triangle of `lu` (n x n).
void trsm_right_upper(Idx m, Idx n, std::span<const Real> lu, std::span<Real> b);

/// trsm_right_upper on B (m x n) with leading dimension ldb. Each row of X
/// depends only on its own row of B, so a row range of a taller panel
/// (rows [i0, i0 + m) of an ldb-row panel: `b` starting at row i0) gets
/// the bits the whole-panel call gives those rows.
void trsm_right_upper_ld(Idx m, Idx n, std::span<const Real> lu, std::span<Real> b,
                         Idx ldb);

/// B (n x m) := inv(L) * B where L is the unit-lower triangle of `lu` (n x n).
void trsm_left_unit_lower(Idx n, Idx m, std::span<const Real> lu, std::span<Real> b);

/// Frobenius-norm of the difference of two packed matrices (test helper).
Real frob_diff(std::span<const Real> a, std::span<const Real> b);

}  // namespace sptrsv
