#pragma once
/// \file dense_tiles.hpp
/// \brief The register tiles behind dense.hpp's GEMMs and
/// trsm_right_upper, templated on the number of doubles per vector.
///
/// Each translation unit that includes this header compiles its own copy of
/// the tiles for one vector width in its own ISA context: dense.cpp the
/// 16-byte width with the default flags, dense_avx512.cpp the 64-byte one
/// with -mavx512f. Everything here has internal linkage, so the linker can
/// never hand one width's copy of a template to another width's caller.
/// Include it nowhere else.
///
/// The tiles use GCC/Clang generic vectors. A tile of `Rows` rows keeps
/// C(i:i+Rows, j) in registers for its whole k loop; each element adds its
/// products one at a time in ascending p, with a rounding after every
/// multiply and every add. The translation units are compiled with
/// -ffp-contract=off, so no multiply-add is fused: GCC fuses `c += a * b`
/// into vfmadd213pd under an AVX-512F target otherwise, which changes bits.
/// Remainder rows drop to narrower tiles, down to a scalar row, and every
/// element keeps the same order whatever tile it lands in.

#include <algorithm>
#include <cstring>

#include "factor/dense_kernels.hpp"

namespace sptrsv::detail {
namespace {

/// `Lanes` doubles in one generic vector; one lane is a plain scalar.
template <int Lanes>
struct VecOf {
  typedef Real type __attribute__((vector_size(Lanes * sizeof(Real))));
};
template <>
struct VecOf<1> {
  using type = Real;
};

/// A tile of `Rows` rows holds them in full `Lanes`-wide vectors, or, when
/// `Rows` is a narrower power of two, in one vector of `Rows` lanes.
template <int Lanes, int Rows>
using TileReg = typename VecOf<(Rows < Lanes ? Rows : Lanes)>::type;

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

/// Rows of a GEMM tile: four vectors per column. With kNr columns that is
/// 8 accumulators and 4 vectors of A, which fits SSE2's 16 vector
/// registers as well as AVX-512's 32.
template <int Lanes>
constexpr int kMr = 4 * Lanes;
constexpr int kNr = 2;

/// C(i:i+Rows, j) += A(i:i+Rows, :) * (Sign * B(:, j)) for the `Cols`
/// columns j whose B and C columns are `b[0..Cols)` and `c[0..Cols)`. The
/// tile stays in registers across the whole k loop. Always inlined:
/// gemv_column and gemm_columns share the one-column tiles, and GCC then
/// moved them out of line, which grew gemm_ld's frame and slowed the LU's
/// updates. The `GCC unroll` pragmas flatten the loops over a tile's
/// vectors and columns; without them GCC at -O2 keeps the accumulators on
/// the stack.
template <int Lanes, int Sign, int Rows, int Cols>
[[gnu::always_inline]] inline void gemm_tile(Idx k, const Real* a, Idx lda,
                                             const Real* const* b, Real* const* c,
                                             Idx i) {
  using V = TileReg<Lanes, Rows>;
  constexpr int kWidth = sizeof(V) / sizeof(Real);
  constexpr int kVecs = Rows / kWidth;
  static_assert(kVecs * kWidth == Rows);
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

/// Rows [i, m) of C: `Rows`-row tiles while they fit, then at most one
/// tile of each narrower power of two, down to a single row.
template <int Lanes, int Sign, int Rows, int Cols>
[[gnu::always_inline]] inline void gemm_rows(Idx m, Idx k, const Real* a, Idx lda,
                                             const Real* const* b, Real* const* c,
                                             Idx i) {
  for (; i + Rows <= m; i += Rows) gemm_tile<Lanes, Sign, Rows, Cols>(k, a, lda, b, c, i);
  if constexpr (Rows > 1) gemm_rows<Lanes, Sign, Rows / 2, Cols>(m, k, a, lda, b, c, i);
}

/// All m rows of C for `Cols` gathered columns, from kMr-row tiles down.
template <int Lanes, int Sign, int Cols>
void gemm_columns(Idx m, Idx k, const Real* a, Idx lda, const Real* const* b,
                  Real* const* c) {
  gemm_rows<Lanes, Sign, kMr<Lanes>, Cols>(m, k, a, lda, b, c, 0);
}

/// C += A * (Sign * b) for a single column b (skipped if all zero): the
/// solves' GEMVs with one right-hand side. Tiles of 2 * kMr rows keep eight
/// independent accumulator chains where gemm_columns' tiles keep four. A
/// solve's block streams cold from the factor, so every line of A is
/// prefetched before the first tile's k loop. Kept out of line so that
/// gemm_ld, the entry point of the LU's updates, stays small.
template <int Lanes, int Sign>
[[gnu::noinline]] void gemv_column(Idx m, Idx k, const Real* a, Idx lda, const Real* b,
                                   Real* c) {
  if (std::all_of(b, b + k, [](Real v) { return v == 0.0; })) return;
  constexpr Idx kLineReals = 64 / sizeof(Real);
  for (Idx p = 0; p < k; ++p) {
    const Real* col = a + static_cast<size_t>(p) * lda;
    for (Idx i = 0; i < m; i += kLineReals) __builtin_prefetch(col + i);
    __builtin_prefetch(col + m - 1);
  }
  gemm_rows<Lanes, Sign, 2 * kMr<Lanes>, 1>(m, k, a, lda, &b, &c, 0);
}

/// C +/-= A*B with arbitrary leading dimensions: the one body behind every
/// public GEMM. Element C(i,j) becomes C(i,j) + A(i,p) * (Sign * B(p,j))
/// added one p at a time in ascending order. A column of B that is all
/// zero leaves C unchanged and is skipped; the others are gathered kNr at a
/// time. A single column (n = 1) takes gemv_column, whose tiles keep the
/// same per-element order.
template <int Lanes, int Sign>
void gemm_ld(Idx m, Idx k, Idx n, const Real* a, Idx lda, const Real* b, Idx ldb,
             Real* c, Idx ldc) {
  if (n == 1) return gemv_column<Lanes, Sign>(m, k, a, lda, b, c);
  const Real* bcols[kNr]{};
  Real* ccols[kNr]{};
  int gathered = 0;
  for (Idx j = 0; j < n; ++j) {
    const Real* bj = b + static_cast<size_t>(j) * ldb;
    if (std::all_of(bj, bj + k, [](Real v) { return v == 0.0; })) continue;
    bcols[gathered] = bj;
    ccols[gathered] = c + static_cast<size_t>(j) * ldc;
    if (++gathered == kNr) {
      gemm_columns<Lanes, Sign, kNr>(m, k, a, lda, bcols, ccols);
      gathered = 0;
    }
  }
  for (int j = 0; j < gathered; ++j) {
    gemm_columns<Lanes, Sign, 1>(m, k, a, lda, bcols + j, ccols + j);
  }
}

/// X(i:i+Rows, j) of X * U = B, in place over B (leading dimension ld):
/// subtract X(:,k) * U(k,j) for ascending k < j with U(k,j) != 0, then
/// multiply by `inv` = 1 / U(j,j).
template <int Lanes, int Rows>
[[gnu::always_inline]] inline void trsm_right_upper_tile(Idx ld, Idx j, const Real* uj,
                                                         Real inv, Real* x, Idx i) {
  using V = TileReg<Lanes, Rows>;
  constexpr int kWidth = sizeof(V) / sizeof(Real);
  constexpr int kVecs = Rows / kWidth;
  static_assert(kVecs * kWidth == Rows);
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

/// Rows [i, m) of column j of X, tiled as gemm_rows tiles C.
template <int Lanes, int Rows>
[[gnu::always_inline]] inline void trsm_right_upper_rows(Idx m, Idx ld, Idx j,
                                                         const Real* uj, Real inv, Real* x,
                                                         Idx i) {
  for (; i + Rows <= m; i += Rows) trsm_right_upper_tile<Lanes, Rows>(ld, j, uj, inv, x, i);
  if constexpr (Rows > 1) trsm_right_upper_rows<Lanes, Rows / 2>(m, ld, j, uj, inv, x, i);
}

/// B (m x n, leading dimension ldb) := B * inv(U), U the upper triangle of
/// `lu` (n x n), column by column of U:
/// X(:,j) = (B(:,j) - X(:,0:j) * U(0:j,j)) / U(j,j).
template <int Lanes>
void trsm_right_upper_ld(Idx m, Idx n, const Real* lu, Real* b, Idx ldb) {
  for (Idx j = 0; j < n; ++j) {
    const Real* uj = lu + static_cast<size_t>(j) * n;
    trsm_right_upper_rows<Lanes, kMr<Lanes>>(m, ldb, j, uj, 1.0 / uj[j], b, 0);
  }
}

/// The table entry for `Bytes`-byte vectors, compiled in the including
/// translation unit's ISA context.
template <int Bytes>
constexpr DenseKernels make_dense_kernels(const char* isa, bool (*cpu_supports)()) {
  constexpr int kLanes = Bytes / static_cast<int>(sizeof(Real));
  static_assert(kLanes >= 2 && (kLanes & (kLanes - 1)) == 0);
  DenseKernels k;
  k.isa = isa;
  k.vector_bytes = Bytes;
  k.max_tile_rows = 2 * kMr<kLanes>;
  k.cpu_supports = cpu_supports;
  k.gemm_plus_ld = &gemm_ld<kLanes, +1>;
  k.gemm_minus_ld = &gemm_ld<kLanes, -1>;
  k.trsm_right_upper_ld = &trsm_right_upper_ld<kLanes>;
  return k;
}

}  // namespace
}  // namespace sptrsv::detail
