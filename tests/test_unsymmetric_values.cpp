#include <gtest/gtest.h>

#include <random>

#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "sparse/generators.hpp"

namespace sptrsv {
namespace {

/// The library assumes a symmetric *pattern* but general (unsymmetric)
/// *values* — true LU, not Cholesky. The built-in generators happen to
/// produce value-symmetric matrices, which would mask any L/U mix-up
/// (where U ~ D L^T). These tests perturb the values asymmetrically.

CsrMatrix make_unsymmetric(Idx nx, Idx ny, std::uint64_t seed) {
  CsrMatrix a = make_grid2d(nx, ny, Stencil2d::kNinePoint);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> uni(0.2, 1.8);
  auto vals = a.values_mut();
  for (auto& v : vals) v *= uni(rng);  // off-diagonals now A(i,j) != A(j,i)
  a.make_diagonally_dominant(1.0, 1.0);
  return a;
}

TEST(UnsymmetricValues, ValuesReallyAreUnsymmetric) {
  const CsrMatrix a = make_unsymmetric(6, 6, 1);
  bool found = false;
  for (Idx r = 0; r < a.rows() && !found; ++r) {
    for (const Idx c : a.row_cols(r)) {
      if (c > r && std::abs(a.at(r, c) - a.at(c, r)) > 1e-6) found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(a.has_symmetric_pattern());
}

TEST(UnsymmetricValues, SequentialFactorAndSolve) {
  const CsrMatrix a = make_unsymmetric(8, 8, 2);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<Real> uni(-1.0, 1.0);
  std::vector<Real> b(static_cast<size_t>(a.rows()));
  for (auto& v : b) v = uni(rng);
  const auto x = solve_system_seq(fs, b);
  EXPECT_LT(relative_residual(a, x, b), 1e-11);

  // No tracked ND level: the whole matrix is one leaf.
  const CsrMatrix a1 = make_unsymmetric(7, 9, 6);
  const FactoredSystem fs1 = analyze_and_factor(a1, 0);
  const std::vector<Real> ones(static_cast<size_t>(a1.rows()), 1.0);
  EXPECT_LT(relative_residual(a1, solve_system_seq(fs1, ones), ones), 1e-11);
}

TEST(UnsymmetricValues, FactorsAreNotTransposesOfEachOther) {
  // L and U must genuinely differ (up to diagonal scaling) for an
  // unsymmetric matrix — guards against silently symmetrized numerics.
  const CsrMatrix a = make_unsymmetric(6, 6, 4);
  const FactoredSystem fs = analyze_and_factor(a, 1);
  const auto& lu = fs.lu;
  Real asym = 0;
  for (Idx k = 0; k < lu.num_supernodes(); ++k) {
    const Idx w = lu.sym.part.width(k);
    const Idx r = lu.sym.panel_rows[static_cast<size_t>(k)];
    if (r == 0) continue;
    // Compare L panel vs U panel entries at mirrored positions, scaled by
    // the diagonal of U (Doolittle: A symmetric would give U = D L^T).
    const auto& lp = lu.lpanel[static_cast<size_t>(k)];
    const auto& up = lu.upanel[static_cast<size_t>(k)];
    for (Idx j = 0; j < w; ++j) {
      const Real d = lu.diag[static_cast<size_t>(k)][static_cast<size_t>(j) * w + j];
      for (Idx i = 0; i < r; ++i) {
        const Real l = lp[static_cast<size_t>(j) * r + i];
        const Real u = up[(static_cast<size_t>(i)) * w + j];
        asym = std::max(asym, std::abs(l * d - u));
      }
    }
  }
  EXPECT_GT(asym, 1e-6);
}

TEST(UnsymmetricValues, Distributed3dSolveBothAlgorithms) {
  const CsrMatrix a = make_unsymmetric(10, 10, 5);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  std::vector<Real> b(static_cast<size_t>(a.rows()), 1.0);
  for (const auto alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
    SolveConfig cfg;
    cfg.shape = {2, 2, 4};
    cfg.algorithm = alg;
    const auto out = solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());
    EXPECT_LT(relative_residual(a, out.x, b), 1e-10);
  }
}

}  // namespace
}  // namespace sptrsv
