#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "factor/dense.hpp"
#include "factor/dense_kernels.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

std::vector<Real> random_matrix(Idx m, Idx n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> uni(-1.0, 1.0);
  std::vector<Real> a(static_cast<size_t>(m) * n);
  for (auto& v : a) v = uni(rng);
  return a;
}

/// Well-conditioned square matrix: random + n on the diagonal.
std::vector<Real> random_dd(Idx n, std::uint64_t seed) {
  auto a = random_matrix(n, n, seed);
  for (Idx i = 0; i < n; ++i) a[static_cast<size_t>(i) * n + i] += n;
  return a;
}

std::vector<Real> matmul(Idx m, Idx k, Idx n, const std::vector<Real>& a,
                         const std::vector<Real>& b) {
  std::vector<Real> c(static_cast<size_t>(m) * n, 0.0);
  gemm_plus(m, k, n, a, b, c);
  return c;
}

// Reference loops: the plain kernels the tiled ones must match bit for bit.
// Each fixes the per-element order that dense.hpp states.

/// j-p-i GEMM, C +/-= A * B, skipping each zero entry of B.
template <int Sign>
void ref_gemm(Idx m, Idx k, Idx n, const Real* a, Idx lda, const Real* b, Idx ldb,
              Real* c, Idx ldc) {
  for (Idx j = 0; j < n; ++j) {
    Real* cj = c + static_cast<size_t>(j) * ldc;
    const Real* bj = b + static_cast<size_t>(j) * ldb;
    for (Idx p = 0; p < k; ++p) {
      const Real bpj = Sign * bj[p];
      if (bpj == 0.0) continue;
      const Real* ap = a + static_cast<size_t>(p) * lda;
      for (Idx i = 0; i < m; ++i) {
        cj[i] += ap[i] * bpj;
      }
    }
  }
}

/// B (m x n, leading dimension ldb) := B * inv(U), column by column of U.
void ref_trsm_right_upper(Idx m, Idx n, const std::vector<Real>& lu,
                          std::vector<Real>& b, Idx ldb) {
  for (Idx j = 0; j < n; ++j) {
    Real* bj = b.data() + static_cast<size_t>(j) * ldb;
    const Real* uj = lu.data() + static_cast<size_t>(j) * n;
    for (Idx k = 0; k < j; ++k) {
      const Real ukj = uj[k];
      if (ukj == 0.0) continue;
      const Real* bk = b.data() + static_cast<size_t>(k) * ldb;
      for (Idx i = 0; i < m; ++i) bj[i] -= bk[i] * ukj;
    }
    const Real inv = 1.0 / uj[j];
    for (Idx i = 0; i < m; ++i) bj[i] *= inv;
  }
}

/// B (n x m) := inv(L) * B, down the rows for all RHS columns at once.
void ref_trsm_left_unit_lower(Idx n, Idx m, const std::vector<Real>& lu,
                              std::vector<Real>& b) {
  for (Idx k = 0; k < n; ++k) {
    const Real* lk = lu.data() + static_cast<size_t>(k) * n;
    for (Idx j = 0; j < m; ++j) {
      Real* bj = b.data() + static_cast<size_t>(j) * n;
      const Real v = bj[k];
      if (v == 0.0) continue;
      for (Idx i = k + 1; i < n; ++i) {
        bj[i] -= lk[i] * v;
      }
    }
  }
}

/// Runs gemm_minus_ld (Sign -1) or gemm_plus_ld (Sign +1) and the reference
/// on the same operands, with every leading dimension padded past its row
/// count, and requires identical bits in all of C, padding included.
template <int Sign>
::testing::AssertionResult gemm_matches_reference(Idx m, Idx k, Idx n,
                                                  const std::vector<Real>& b,
                                                  std::uint64_t seed) {
  const Idx lda = m + 3, ldb = k + 2, ldc = m + 5;
  const auto a = random_matrix(lda, k, seed);
  const auto c0 = random_matrix(ldc, n, seed + 1);
  auto c = c0;
  auto expect = c0;
  ref_gemm<Sign>(m, k, n, a.data(), lda, b.data(), ldb, expect.data(), ldc);
  if (Sign < 0) {
    gemm_minus_ld(m, k, n, a, lda, b, ldb, c, ldc);
  } else {
    gemm_plus_ld(m, k, n, a, lda, b, ldb, c, ldc);
  }
  return test::bitwise_equal(c, expect);
}

TEST(DenseBitwise, GemmMatchesReferenceAtEveryShape) {
  const Idx sizes[] = {0, 1, 2, 3, 7, 8, 9, 17, 96};
  std::uint64_t seed = 100;
  for (const Idx m : sizes) {
    for (const Idx k : sizes) {
      for (const Idx n : sizes) {
        const auto b = random_matrix(k + 2, n, seed++);
        EXPECT_TRUE(gemm_matches_reference<-1>(m, k, n, b, seed++))
            << "minus m=" << m << " k=" << k << " n=" << n;
        EXPECT_TRUE(gemm_matches_reference<+1>(m, k, n, b, seed++))
            << "plus m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(DenseBitwise, GemmSkipsZeroColumnsAndKeepsZeroEntries) {
  const Idx m = 19, k = 9, n = 11, ldb = k + 2;
  auto b = random_matrix(ldb, n, 7);
  for (const Idx j : {0, 1, 5, 9, 10}) {  // zero columns at start, middle and end
    for (Idx p = 0; p < k; ++p) b[static_cast<size_t>(j) * ldb + p] = 0.0;
  }
  for (const Idx j : {2, 3, 6, 8}) {  // scattered zeros inside nonzero columns
    b[static_cast<size_t>(j) * ldb + static_cast<size_t>(j % k)] = 0.0;
    b[static_cast<size_t>(j) * ldb + static_cast<size_t>((3 * j + 1) % k)] = -0.0;
  }
  EXPECT_TRUE(gemm_matches_reference<-1>(m, k, n, b, 8));
  EXPECT_TRUE(gemm_matches_reference<+1>(m, k, n, b, 9));
}

TEST(DenseBitwise, GemmPlusPackedMatchesReference) {
  const Idx m = 13, k = 10, n = 5;
  const auto a = random_matrix(m, k, 10);
  const auto b = random_matrix(k, n, 11);
  auto c = random_matrix(m, n, 12);
  auto expect = c;
  ref_gemm<+1>(m, k, n, a.data(), m, b.data(), k, expect.data(), m);
  gemm_plus(m, k, n, a, b, c);
  EXPECT_TRUE(test::bitwise_equal(c, expect));
}

/// Factored w x w diagonal block with exact zeros set in both triangles
/// afterwards, so trsm_right_upper's U(k,j) == 0 skip is exercised.
std::vector<Real> sparse_lu(Idx w, std::uint64_t seed) {
  auto lu = random_dd(w, seed);
  EXPECT_TRUE(lu_unpivoted_inplace(w, lu));
  for (Idx j = 0; j < w; ++j) {
    for (Idx i = 0; i < w; ++i) {
      if (i != j && (i + 2 * j) % 5 == 0) lu[static_cast<size_t>(j) * w + i] = 0.0;
    }
  }
  return lu;
}

TEST(DenseBitwise, TrsmsMatchReference) {
  for (const Idx w : {1, 2, 5, 96}) {
    const auto lu = sparse_lu(w, 60 + static_cast<std::uint64_t>(w));
    for (const Idx rows : {1, 7, 8, 9, 300}) {
      auto b = random_matrix(rows, w, 70 + static_cast<std::uint64_t>(rows));
      for (size_t e = 0; e < b.size(); e += 7) b[e] = 0.0;
      auto expect = b;
      ref_trsm_right_upper(rows, w, lu, expect, rows);
      trsm_right_upper(rows, w, lu, b);
      EXPECT_TRUE(test::bitwise_equal(b, expect))
          << "trsm_right_upper rows=" << rows << " w=" << w;

      auto x = random_matrix(w, rows, 80 + static_cast<std::uint64_t>(rows));
      for (size_t e = 0; e < x.size(); e += 5) x[e] = 0.0;
      auto expect_x = x;
      ref_trsm_left_unit_lower(w, rows, lu, expect_x);
      trsm_left_unit_lower(w, rows, lu, x);
      EXPECT_TRUE(test::bitwise_equal(x, expect_x))
          << "trsm_left_unit_lower rows=" << rows << " w=" << w;
    }
  }
}

TEST(DenseBitwise, TrsmsOnRowAndColumnRangesMatchWholePanel) {
  // factor_supernodal splits a step's L panel into row ranges and its U
  // panel into column ranges. Split in two at every point, each TRSM must
  // give the reference bits of the whole panel.
  constexpr Idx m = 37;  // full tiles of both widths, then narrower remainder tiles
  for (const Idx w : {1, 5, 96}) {
    const auto lu = sparse_lu(w, 90 + static_cast<std::uint64_t>(w));
    auto b0 = random_matrix(m, w, 95 + static_cast<std::uint64_t>(w));
    for (size_t e = 0; e < b0.size(); e += 7) b0[e] = 0.0;
    auto expect = b0;
    ref_trsm_right_upper(m, w, lu, expect, m);
    auto x0 = random_matrix(w, m, 99 + static_cast<std::uint64_t>(w));
    for (size_t e = 0; e < x0.size(); e += 5) x0[e] = 0.0;
    auto expect_x = x0;
    ref_trsm_left_unit_lower(w, m, lu, expect_x);
    for (Idx split = 0; split <= m; ++split) {
      auto b = b0;
      trsm_right_upper_ld(split, w, lu, b, m);
      trsm_right_upper_ld(m - split, w, lu, std::span<Real>(b).subspan(split), m);
      EXPECT_TRUE(test::bitwise_equal(b, expect))
          << "trsm_right_upper_ld w=" << w << " rows split at " << split;

      auto x = x0;
      trsm_left_unit_lower(w, split, lu, x);
      trsm_left_unit_lower(w, m - split, lu,
                           std::span<Real>(x).subspan(static_cast<size_t>(split) * w));
      EXPECT_TRUE(test::bitwise_equal(x, expect_x))
          << "trsm_left_unit_lower w=" << w << " columns split at " << split;
    }
  }
}

// Every compiled vector width, bit for bit. The public functions reach only
// the width this CPU dispatches to, so these run the same reference checks
// on each width's table directly, skipping a width the CPU cannot run.

using detail::DenseKernels;

class DenseWidth : public ::testing::TestWithParam<const DenseKernels*> {
 protected:
  void SetUp() override {
    if (!GetParam()->cpu_supports()) {
      GTEST_SKIP() << "this CPU lacks " << GetParam()->isa;
    }
  }
  const DenseKernels& kern() const { return *GetParam(); }
};

/// gemm_matches_reference on one width's kernels.
::testing::AssertionResult width_gemm_matches_reference(const DenseKernels& kern,
                                                        int sign, Idx m, Idx k, Idx n,
                                                        const std::vector<Real>& b,
                                                        std::uint64_t seed) {
  const Idx lda = m + 3, ldb = k + 2, ldc = m + 5;
  const auto a = random_matrix(lda, k, seed);
  auto c = random_matrix(ldc, n, seed + 1);
  auto expect = c;
  if (sign < 0) {
    ref_gemm<-1>(m, k, n, a.data(), lda, b.data(), ldb, expect.data(), ldc);
    kern.gemm_minus_ld(m, k, n, a.data(), lda, b.data(), ldb, c.data(), ldc);
  } else {
    ref_gemm<+1>(m, k, n, a.data(), lda, b.data(), ldb, expect.data(), ldc);
    kern.gemm_plus_ld(m, k, n, a.data(), lda, b.data(), ldb, c.data(), ldc);
  }
  return test::bitwise_equal(c, expect);
}

TEST(DenseWidths, SixteenByteWidthComesFirstAndDispatchTakesTheWidestSupported) {
  const auto widths = detail::dense_kernel_widths();
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.front()->vector_bytes, 16);
  EXPECT_TRUE(widths.front()->cpu_supports());
  const DenseKernels* widest = widths.front();
  for (const DenseKernels* k : widths) {
    EXPECT_GE(k->vector_bytes, widest->vector_bytes) << k->isa;
    if (k->cpu_supports()) widest = k;
  }
  EXPECT_EQ(&detail::dense_kernels(), widest);
  EXPECT_EQ(&detail::dense_kernels(), &detail::dense_kernels());  // chosen once
}

TEST_P(DenseWidth, GemmMatchesReferenceAtEveryRowCount) {
  // Every row count up to two of the tallest tiles plus three, so each
  // remainder tile runs after full tiles and alone. B has an all-zero
  // column and zero entries (+0 and -0) inside the others.
  const Idx kMaxRows = 2 * kern().max_tile_rows + 3;
  std::uint64_t seed = 300;
  for (const Idx n : {1, 2, 8, 50}) {
    for (const Idx k : {1, 9}) {
      const Idx ldb = k + 2;
      auto b = random_matrix(ldb, n, seed++);
      if (n > 1) {
        for (Idx p = 0; p < k; ++p) b[static_cast<size_t>(n / 2) * ldb + p] = 0.0;
      }
      for (size_t e = 0; e < b.size(); e += 5) b[e] = (e % 2 == 0) ? 0.0 : -0.0;
      for (Idx m = 1; m <= kMaxRows; ++m) {
        EXPECT_TRUE(width_gemm_matches_reference(kern(), -1, m, k, n, b, seed++))
            << kern().isa << " minus m=" << m << " k=" << k << " n=" << n;
        EXPECT_TRUE(width_gemm_matches_reference(kern(), +1, m, k, n, b, seed++))
            << kern().isa << " plus m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST_P(DenseWidth, GemmMatchesReferenceAtEveryShape) {
  const Idx sizes[] = {0, 1, 2, 3, 7, 8, 9, 17, 96};
  std::uint64_t seed = 100;
  for (const Idx m : sizes) {
    for (const Idx k : sizes) {
      for (const Idx n : sizes) {
        const auto b = random_matrix(k + 2, n, seed++);
        EXPECT_TRUE(width_gemm_matches_reference(kern(), -1, m, k, n, b, seed++))
            << kern().isa << " minus m=" << m << " k=" << k << " n=" << n;
        EXPECT_TRUE(width_gemm_matches_reference(kern(), +1, m, k, n, b, seed++))
            << kern().isa << " plus m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST_P(DenseWidth, TrsmRightUpperMatchesReferenceAtEveryRowCount) {
  // Row counts as in the GEMM case; U has exact zeros off the diagonal and
  // B zero entries. The panel's leading dimension exceeds its row count,
  // and the padding must keep its bits.
  const Idx kMaxRows = 2 * kern().max_tile_rows + 3;
  for (const Idx w : {1, 2, 8, 50}) {
    const auto lu = sparse_lu(w, 400 + static_cast<std::uint64_t>(w));
    for (Idx rows = 1; rows <= kMaxRows; ++rows) {
      const Idx ldb = rows + 3;
      auto b = random_matrix(ldb, w, 500 + static_cast<std::uint64_t>(rows));
      for (size_t e = 0; e < b.size(); e += 7) b[e] = 0.0;
      auto expect = b;
      ref_trsm_right_upper(rows, w, lu, expect, ldb);
      kern().trsm_right_upper_ld(rows, w, lu.data(), b.data(), ldb);
      EXPECT_TRUE(test::bitwise_equal(b, expect))
          << kern().isa << " rows=" << rows << " w=" << w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CompiledWidths, DenseWidth,
                         ::testing::ValuesIn(detail::dense_kernel_widths().begin(),
                                             detail::dense_kernel_widths().end()),
                         [](const ::testing::TestParamInfo<const DenseKernels*>& info) {
                           return std::string(info.param->isa);
                         });

TEST(Dense, GemmMinusMatchesNaive) {
  const Idx m = 5, k = 4, n = 3;
  const auto a = random_matrix(m, k, 1);
  const auto b = random_matrix(k, n, 2);
  auto c = random_matrix(m, n, 3);
  const auto c0 = c;
  gemm_minus_ld(m, k, n, a, m, b, k, c, m);
  for (Idx j = 0; j < n; ++j) {
    for (Idx i = 0; i < m; ++i) {
      Real acc = c0[static_cast<size_t>(j) * m + i];
      for (Idx p = 0; p < k; ++p) {
        acc -= a[static_cast<size_t>(p) * m + i] * b[static_cast<size_t>(j) * k + p];
      }
      EXPECT_NEAR(c[static_cast<size_t>(j) * m + i], acc, 1e-13);
    }
  }
}

TEST(Dense, GemmPlusUndoesGemmMinus) {
  const Idx m = 6, k = 6, n = 2;
  const auto a = random_matrix(m, k, 4);
  const auto b = random_matrix(k, n, 5);
  auto c = random_matrix(m, n, 6);
  const auto c0 = c;
  gemm_minus_ld(m, k, n, a, m, b, k, c, m);
  gemm_plus(m, k, n, a, b, c);
  EXPECT_LT(frob_diff(c, c0), 1e-12);
}

TEST(Dense, GemmLdUpdatesEmbeddedBlock) {
  // C is a 3x2 block at row offset 1 inside a 6-row panel.
  const Idx m = 3, k = 2, n = 2, ldc = 6;
  const auto a = random_matrix(m, k, 7);
  const auto b = random_matrix(k, n, 8);
  std::vector<Real> panel(static_cast<size_t>(ldc) * n, 1.0);
  std::vector<Real> expect = panel;
  gemm_minus_ld(m, k, n, a, m, b, k, std::span<Real>(panel).subspan(1), ldc);
  for (Idx j = 0; j < n; ++j) {
    for (Idx i = 0; i < m; ++i) {
      Real acc = 1.0;
      for (Idx p = 0; p < k; ++p) {
        acc -= a[static_cast<size_t>(p) * m + i] * b[static_cast<size_t>(j) * k + p];
      }
      expect[static_cast<size_t>(j) * ldc + 1 + i] = acc;
    }
  }
  EXPECT_LT(frob_diff(panel, expect), 1e-13);
}

TEST(Dense, LuFactorizationReconstructs) {
  const Idx n = 8;
  const auto a0 = random_dd(n, 11);
  auto lu = a0;
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  // Rebuild L (unit lower) and U (upper) and multiply.
  std::vector<Real> l(static_cast<size_t>(n) * n, 0.0), u(static_cast<size_t>(n) * n, 0.0);
  for (Idx j = 0; j < n; ++j) {
    l[static_cast<size_t>(j) * n + j] = 1.0;
    for (Idx i = 0; i < n; ++i) {
      if (i > j) {
        l[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
      } else {
        u[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
      }
    }
  }
  const auto prod = matmul(n, n, n, l, u);
  EXPECT_LT(frob_diff(prod, a0), 1e-10);
}

TEST(Dense, LuDetectsZeroPivot) {
  std::vector<Real> a = {0.0, 1.0, 1.0, 0.0};  // 2x2 antidiagonal
  EXPECT_FALSE(lu_unpivoted_inplace(2, a));
}

TEST(Dense, LuDetectsNanPivot) {
  std::vector<Real> a = {std::numeric_limits<Real>::quiet_NaN(), 1.0, 1.0, 4.0};
  EXPECT_FALSE(lu_unpivoted_inplace(2, a));
}

TEST(Dense, LuDetectsPivotThatOverflows) {
  // Finite input whose elimination overflows: L(1,0) = 1e300 / 1e-300 is
  // inf, so the second pivot becomes -inf.
  std::vector<Real> a = {1e-300, 1e300, 1e300, 1.0};
  EXPECT_FALSE(lu_unpivoted_inplace(2, a));
}

TEST(Dense, InvertUnitLower) {
  const Idx n = 7;
  auto lu = random_dd(n, 21);
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  std::vector<Real> linv(static_cast<size_t>(n) * n);
  invert_unit_lower(n, lu, linv);
  // L * Linv == I.
  std::vector<Real> l(static_cast<size_t>(n) * n, 0.0);
  for (Idx j = 0; j < n; ++j) {
    l[static_cast<size_t>(j) * n + j] = 1.0;
    for (Idx i = j + 1; i < n; ++i) l[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
  }
  const auto prod = matmul(n, n, n, l, linv);
  std::vector<Real> eye(static_cast<size_t>(n) * n, 0.0);
  for (Idx i = 0; i < n; ++i) eye[static_cast<size_t>(i) * n + i] = 1.0;
  EXPECT_LT(frob_diff(prod, eye), 1e-11);
}

TEST(Dense, InvertUpper) {
  const Idx n = 7;
  auto lu = random_dd(n, 22);
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  std::vector<Real> uinv(static_cast<size_t>(n) * n);
  invert_upper(n, lu, uinv);
  std::vector<Real> u(static_cast<size_t>(n) * n, 0.0);
  for (Idx j = 0; j < n; ++j) {
    for (Idx i = 0; i <= j; ++i) u[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
  }
  const auto prod = matmul(n, n, n, u, uinv);
  std::vector<Real> eye(static_cast<size_t>(n) * n, 0.0);
  for (Idx i = 0; i < n; ++i) eye[static_cast<size_t>(i) * n + i] = 1.0;
  EXPECT_LT(frob_diff(prod, eye), 1e-11);
}

TEST(Dense, TrsmRightUpper) {
  const Idx m = 4, n = 5;
  auto lu = random_dd(n, 31);
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  const auto b0 = random_matrix(m, n, 32);
  auto x = b0;
  trsm_right_upper(m, n, lu, x);
  // X * U should equal B.
  std::vector<Real> u(static_cast<size_t>(n) * n, 0.0);
  for (Idx j = 0; j < n; ++j) {
    for (Idx i = 0; i <= j; ++i) u[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
  }
  const auto prod = matmul(m, n, n, x, u);
  EXPECT_LT(frob_diff(prod, b0), 1e-11);
}

TEST(Dense, TrsmLeftUnitLower) {
  const Idx n = 5, m = 3;
  auto lu = random_dd(n, 41);
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  const auto b0 = random_matrix(n, m, 42);
  auto x = b0;
  trsm_left_unit_lower(n, m, lu, x);
  std::vector<Real> l(static_cast<size_t>(n) * n, 0.0);
  for (Idx j = 0; j < n; ++j) {
    l[static_cast<size_t>(j) * n + j] = 1.0;
    for (Idx i = j + 1; i < n; ++i) l[static_cast<size_t>(j) * n + i] = lu[static_cast<size_t>(j) * n + i];
  }
  const auto prod = matmul(n, n, m, l, x);
  EXPECT_LT(frob_diff(prod, b0), 1e-11);
}

TEST(Dense, InverseConsistentWithTrsm) {
  // Multiplying by the precomputed inverse (what the solver does, per the
  // paper) must agree with the triangular solve (what factorization does).
  const Idx n = 6, m = 4;
  auto lu = random_dd(n, 51);
  ASSERT_TRUE(lu_unpivoted_inplace(n, lu));
  std::vector<Real> uinv(static_cast<size_t>(n) * n);
  invert_upper(n, lu, uinv);

  const auto b0 = random_matrix(m, n, 52);
  auto via_trsm = b0;
  trsm_right_upper(m, n, lu, via_trsm);
  std::vector<Real> via_inv(static_cast<size_t>(m) * n, 0.0);
  gemm_plus(m, n, n, b0, uinv, via_inv);
  EXPECT_LT(frob_diff(via_trsm, via_inv), 1e-10);
}

}  // namespace
}  // namespace sptrsv
