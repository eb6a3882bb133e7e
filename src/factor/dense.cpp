#include "factor/dense.hpp"

#include <cassert>
#include <cmath>

#include "factor/dense_tiles.hpp"

namespace sptrsv {

namespace detail {

// The dispatch (dense_kernels.hpp). This file is compiled without ISA
// flags, so the CPUID checks below run on any x86-64 CPU; it also holds the
// 16-byte width of the tiles, which needs none.

bool cpu_has_avx512f() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

namespace {

bool always_supported() { return true; }

/// The 16-byte width, compiled with the default flags: SSE2 on x86-64.
constinit const DenseKernels kDenseKernelsSse2 =
    make_dense_kernels<16>("sse2", &always_supported);

#if SPTRSV_DENSE_AVX512
constexpr const DenseKernels* kWidths[] = {&kDenseKernelsSse2, &kDenseKernelsAvx512};
#else
constexpr const DenseKernels* kWidths[] = {&kDenseKernelsSse2};
#endif

const DenseKernels& widest_supported() {
  const DenseKernels* best = kWidths[0];
  for (const DenseKernels* k : kWidths) {
    if (k->cpu_supports()) best = k;
  }
  return *best;
}

}  // namespace

std::span<const DenseKernels* const> dense_kernel_widths() { return kWidths; }

const DenseKernels& dense_kernels() {
  static const DenseKernels& chosen = widest_supported();
  return chosen;
}

}  // namespace detail

void gemm_plus(Idx m, Idx k, Idx n, std::span<const Real> a, std::span<const Real> b,
               std::span<Real> c) {
  assert(a.size() >= static_cast<size_t>(m) * k);
  assert(b.size() >= static_cast<size_t>(k) * n);
  assert(c.size() >= static_cast<size_t>(m) * n);
  detail::dense_kernels().gemm_plus_ld(m, k, n, a.data(), m, b.data(), k, c.data(), m);
}

void gemm_minus_ld(Idx m, Idx k, Idx n, std::span<const Real> a, Idx lda,
                   std::span<const Real> b, Idx ldb, std::span<Real> c, Idx ldc) {
  detail::dense_kernels().gemm_minus_ld(m, k, n, a.data(), lda, b.data(), ldb, c.data(),
                                        ldc);
}

void gemm_plus_ld(Idx m, Idx k, Idx n, std::span<const Real> a, Idx lda,
                  std::span<const Real> b, Idx ldb, std::span<Real> c, Idx ldc) {
  detail::dense_kernels().gemm_plus_ld(m, k, n, a.data(), lda, b.data(), ldb, c.data(),
                                       ldc);
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
  detail::dense_kernels().trsm_right_upper_ld(m, n, lu.data(), b.data(), ldb);
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
