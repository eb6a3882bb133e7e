#include "factor/dense.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <type_traits>

namespace sptrsv {

namespace {

// Register tiles. A GCC/Clang generic vector of kLanes doubles needs no ISA
// flags: on x86-64 it compiles to SSE2. A GEMM tile holds kMr rows by kNr
// columns of C in kMr / kLanes * kNr vector registers. The `GCC unroll`
// pragmas flatten the loops over a tile's vectors and columns; without them
// GCC at -O2 keeps the accumulators on the stack.
using Vec = Real __attribute__((vector_size(16)));
constexpr int kLanes = sizeof(Vec) / sizeof(Real);
constexpr int kMr = 8;
constexpr int kNr = 2;
static_assert(kMr % kLanes == 0);

/// A tile of `Rows` rows is held in vectors when `Rows` fills whole vectors
/// and in scalars otherwise (the last odd row of a remainder).
template <int Rows>
using TileReg = std::conditional_t<Rows % kLanes == 0, Vec, Real>;

template <class V>
V load(const Real* p) {
  V v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
void store(Real* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

/// C(i:i+Rows, j) += A(i:i+Rows, :) * (Sign * B(:, j)) for the `Cols`
/// columns j whose B and C columns are `b[0..Cols)` and `c[0..Cols)`. The
/// tile stays in registers across the whole k loop, and each element adds
/// its products one at a time in ascending p. Always inlined: gemv_column
/// and gemm_columns share the one-column tiles, and GCC then moved them out
/// of line, which grew gemm_ld's frame and slowed the LU's updates.
template <int Sign, int Rows, int Cols>
[[gnu::always_inline]] inline void gemm_tile(Idx k, const Real* a, Idx lda,
                                             const Real* const* b, Real* const* c,
                                             Idx i) {
  using V = TileReg<Rows>;
  constexpr int kWidth = sizeof(V) / sizeof(Real);
  constexpr int kVecs = Rows / kWidth;
  const Real* bj[Cols]{};
  Real* cj[Cols]{};
  V acc[Cols][kVecs]{};
#pragma GCC unroll 16
  for (int j = 0; j < Cols; ++j) {
    bj[j] = b[j];
    cj[j] = c[j] + i;
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) acc[j][v] = load<V>(cj[j] + v * kWidth);
  }
  const Real* ap = a + i;
  for (Idx p = 0; p < k; ++p, ap += lda) {
    V av[kVecs]{};
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) av[v] = load<V>(ap + v * kWidth);
#pragma GCC unroll 16
    for (int j = 0; j < Cols; ++j) {
      const Real bpj = Sign * bj[j][p];
#pragma GCC unroll 16
      for (int v = 0; v < kVecs; ++v) acc[j][v] += av[v] * bpj;
    }
  }
#pragma GCC unroll 16
  for (int j = 0; j < Cols; ++j) {
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) store(cj[j] + v * kWidth, acc[j][v]);
  }
}

/// All m rows of C for `Cols` gathered columns: full kMr-row tiles, then
/// pairs of rows, then the last odd row.
template <int Sign, int Cols>
void gemm_columns(Idx m, Idx k, const Real* a, Idx lda, const Real* const* b,
                  Real* const* c) {
  Idx i = 0;
  for (; i + kMr <= m; i += kMr) gemm_tile<Sign, kMr, Cols>(k, a, lda, b, c, i);
  for (; i + kLanes <= m; i += kLanes) gemm_tile<Sign, kLanes, Cols>(k, a, lda, b, c, i);
  for (; i < m; ++i) gemm_tile<Sign, 1, Cols>(k, a, lda, b, c, i);
}

/// C += A * (Sign * b) for a single column b (skipped if all zero): the
/// solves' GEMVs with one right-hand side. Tiles of 2 * kMr rows keep eight
/// independent accumulator chains where gemm_columns' tiles keep four. A
/// solve's block streams cold from the factor, so every line of A is
/// prefetched before the first tile's k loop. Kept out of line so that
/// gemm_ld, inlined into the LU's gemm_minus_ld, stays as small as before.
template <int Sign>
[[gnu::noinline]] void gemv_column(Idx m, Idx k, const Real* a, Idx lda, const Real* b,
                                   Real* c) {
  if (std::all_of(b, b + k, [](Real v) { return v == 0.0; })) return;
  constexpr Idx kLineReals = 64 / sizeof(Real);
  for (Idx p = 0; p < k; ++p) {
    const Real* col = a + static_cast<size_t>(p) * lda;
    for (Idx i = 0; i < m; i += kLineReals) __builtin_prefetch(col + i);
    __builtin_prefetch(col + m - 1);
  }
  Idx i = 0;
  for (; i + 2 * kMr <= m; i += 2 * kMr) {
    gemm_tile<Sign, 2 * kMr, 1>(k, a, lda, &b, &c, i);
  }
  for (; i + kMr <= m; i += kMr) gemm_tile<Sign, kMr, 1>(k, a, lda, &b, &c, i);
  for (; i + kLanes <= m; i += kLanes) gemm_tile<Sign, kLanes, 1>(k, a, lda, &b, &c, i);
  for (; i < m; ++i) gemm_tile<Sign, 1, 1>(k, a, lda, &b, &c, i);
}

/// C +/-= A*B with arbitrary leading dimensions: the one body behind every
/// public GEMM. Element C(i,j) becomes C(i,j) + A(i,p) * (Sign * B(p,j))
/// added one p at a time in ascending order. A column of B that is all
/// zero leaves C unchanged and is skipped; the others are gathered kNr at a
/// time. A single column (n = 1) takes gemv_column, whose tiles keep the
/// same per-element order.
template <int Sign>
void gemm_ld(Idx m, Idx k, Idx n, const Real* a, Idx lda, const Real* b, Idx ldb,
             Real* c, Idx ldc) {
  if (n == 1) return gemv_column<Sign>(m, k, a, lda, b, c);
  const Real* bcols[kNr]{};
  Real* ccols[kNr]{};
  int gathered = 0;
  for (Idx j = 0; j < n; ++j) {
    const Real* bj = b + static_cast<size_t>(j) * ldb;
    if (std::all_of(bj, bj + k, [](Real v) { return v == 0.0; })) continue;
    bcols[gathered] = bj;
    ccols[gathered] = c + static_cast<size_t>(j) * ldc;
    if (++gathered == kNr) {
      gemm_columns<Sign, kNr>(m, k, a, lda, bcols, ccols);
      gathered = 0;
    }
  }
  for (int j = 0; j < gathered; ++j) {
    gemm_columns<Sign, 1>(m, k, a, lda, bcols + j, ccols + j);
  }
}

/// X(i:i+Rows, j) of X * U = B, in place over B (leading dimension ld):
/// subtract X(:,k) * U(k,j) for ascending k < j with U(k,j) != 0, then
/// multiply by `inv` = 1 / U(j,j).
template <int Rows>
void trsm_right_upper_tile(Idx ld, Idx j, const Real* uj, Real inv, Real* x, Idx i) {
  using V = TileReg<Rows>;
  constexpr int kWidth = sizeof(V) / sizeof(Real);
  constexpr int kVecs = Rows / kWidth;
  Real* xj = x + static_cast<size_t>(j) * ld + i;
  V acc[kVecs]{};
#pragma GCC unroll 16
  for (int v = 0; v < kVecs; ++v) acc[v] = load<V>(xj + v * kWidth);
  for (Idx k = 0; k < j; ++k) {
    const Real ukj = uj[k];
    if (ukj == 0.0) continue;
    const Real* xk = x + static_cast<size_t>(k) * ld + i;
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) acc[v] -= load<V>(xk + v * kWidth) * ukj;
  }
#pragma GCC unroll 16
  for (int v = 0; v < kVecs; ++v) store(xj + v * kWidth, acc[v] * inv);
}

}  // namespace

void gemm_plus(Idx m, Idx k, Idx n, std::span<const Real> a, std::span<const Real> b,
               std::span<Real> c) {
  assert(a.size() >= static_cast<size_t>(m) * k);
  assert(b.size() >= static_cast<size_t>(k) * n);
  assert(c.size() >= static_cast<size_t>(m) * n);
  gemm_ld<+1>(m, k, n, a.data(), m, b.data(), k, c.data(), m);
}

void gemm_minus_ld(Idx m, Idx k, Idx n, std::span<const Real> a, Idx lda,
                   std::span<const Real> b, Idx ldb, std::span<Real> c, Idx ldc) {
  gemm_ld<-1>(m, k, n, a.data(), lda, b.data(), ldb, c.data(), ldc);
}

void gemm_plus_ld(Idx m, Idx k, Idx n, std::span<const Real> a, Idx lda,
                  std::span<const Real> b, Idx ldb, std::span<Real> c, Idx ldc) {
  gemm_ld<+1>(m, k, n, a.data(), lda, b.data(), ldb, c.data(), ldc);
}

bool lu_unpivoted_inplace(Idx n, std::span<Real> a) {
  assert(a.size() >= static_cast<size_t>(n) * n);
  for (Idx k = 0; k < n; ++k) {
    const Real pivot = a[static_cast<size_t>(k) * n + k];
    if (pivot == 0.0 || !std::isfinite(pivot)) return false;
    const Real inv_pivot = 1.0 / pivot;
    for (Idx i = k + 1; i < n; ++i) {
      a[static_cast<size_t>(k) * n + i] *= inv_pivot;  // L(i,k)
    }
    for (Idx j = k + 1; j < n; ++j) {
      const Real ukj = a[static_cast<size_t>(j) * n + k];
      if (ukj == 0.0) continue;
      Real* col_j = a.data() + static_cast<size_t>(j) * n;
      const Real* col_k = a.data() + static_cast<size_t>(k) * n;
      for (Idx i = k + 1; i < n; ++i) {
        col_j[i] -= col_k[i] * ukj;
      }
    }
  }
  return true;
}

void invert_unit_lower(Idx n, std::span<const Real> a, std::span<Real> out) {
  assert(out.size() >= static_cast<size_t>(n) * n);
  // Column-by-column forward substitution: out(:,j) = L^{-1} e_j.
  for (Idx j = 0; j < n; ++j) {
    Real* col = out.data() + static_cast<size_t>(j) * n;
    for (Idx i = 0; i < n; ++i) col[i] = (i == j) ? 1.0 : 0.0;
    for (Idx k = j; k < n; ++k) {
      const Real v = col[k];
      if (v == 0.0) continue;
      const Real* lk = a.data() + static_cast<size_t>(k) * n;
      for (Idx i = k + 1; i < n; ++i) {
        col[i] -= lk[i] * v;
      }
    }
  }
}

void invert_upper(Idx n, std::span<const Real> a, std::span<Real> out) {
  assert(out.size() >= static_cast<size_t>(n) * n);
  // Back substitution per column: out(:,j) = U^{-1} e_j.
  for (Idx j = 0; j < n; ++j) {
    Real* col = out.data() + static_cast<size_t>(j) * n;
    for (Idx i = 0; i < n; ++i) col[i] = (i == j) ? 1.0 : 0.0;
    for (Idx k = j; k >= 0; --k) {
      col[k] /= a[static_cast<size_t>(k) * n + k];
      const Real v = col[k];
      if (v == 0.0) continue;
      const Real* uk = a.data() + static_cast<size_t>(k) * n;
      for (Idx i = 0; i < k; ++i) {
        col[i] -= uk[i] * v;
      }
    }
  }
}

void trsm_right_upper(Idx m, Idx n, std::span<const Real> lu, std::span<Real> b) {
  trsm_right_upper_ld(m, n, lu, b, m);
}

void trsm_right_upper_ld(Idx m, Idx n, std::span<const Real> lu, std::span<Real> b,
                         Idx ldb) {
  // Solve X * U = B column by column of U: X(:,j) = (B(:,j) - X(:,0:j)*U(0:j,j)) / U(j,j).
  for (Idx j = 0; j < n; ++j) {
    const Real* uj = lu.data() + static_cast<size_t>(j) * n;
    const Real inv = 1.0 / uj[j];
    Idx i = 0;
    for (; i + kMr <= m; i += kMr) trsm_right_upper_tile<kMr>(ldb, j, uj, inv, b.data(), i);
    for (; i + kLanes <= m; i += kLanes) {
      trsm_right_upper_tile<kLanes>(ldb, j, uj, inv, b.data(), i);
    }
    for (; i < m; ++i) trsm_right_upper_tile<1>(ldb, j, uj, inv, b.data(), i);
  }
}

void trsm_left_unit_lower(Idx n, Idx m, std::span<const Real> lu, std::span<Real> b) {
  // Solve L * X = B by forward substitution, one RHS column at a time so
  // the column stays in L1.
  for (Idx j = 0; j < m; ++j) {
    Real* bj = b.data() + static_cast<size_t>(j) * n;
    for (Idx k = 0; k < n; ++k) {
      const Real v = bj[k];
      if (v == 0.0) continue;
      const Real* lk = lu.data() + static_cast<size_t>(k) * n;
      for (Idx i = k + 1; i < n; ++i) {
        bj[i] -= lk[i] * v;
      }
    }
  }
}

Real frob_diff(std::span<const Real> a, std::span<const Real> b) {
  assert(a.size() == b.size());
  Real acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const Real d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

}  // namespace sptrsv
