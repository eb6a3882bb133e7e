#include <gtest/gtest.h>
#include <sched.h>

#include <iostream>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "factor/sptrsv_seq.hpp"
#include "factor/supernodal_lu.hpp"
#include "ordering/etree.hpp"
#include "sparse/generators.hpp"
#include "sparse/paper_matrices.hpp"
#include "symbolic/colcounts.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

SupernodalLU factor(const CsrMatrix& a, const SupernodeOptions& opt = {}) {
  const auto parent = elimination_tree(a);
  const auto counts = cholesky_col_counts(a, parent);
  return factor_supernodal(a, block_symbolic(a, find_supernodes(parent, counts, opt)));
}

/// Max |L*U - A| over all entries, via the dense reconstruction.
Real reconstruction_error(const CsrMatrix& a, const SupernodalLU& f) {
  const auto prod = f.reconstruct_dense();
  const Idx n = a.rows();
  Real worst = 0;
  for (Idx i = 0; i < n; ++i) {
    for (Idx j = 0; j < n; ++j) {
      worst = std::max(worst, std::abs(prod[static_cast<size_t>(j) * n + i] - a.at(i, j)));
    }
  }
  return worst;
}

TEST(SupernodalLu, ReconstructsBanded) {
  const CsrMatrix a = make_banded(20, 3);
  EXPECT_LT(reconstruction_error(a, factor(a)), 1e-10);
}

TEST(SupernodalLu, ReconstructsGrid2d) {
  const CsrMatrix a = make_grid2d(6, 6, Stencil2d::kNinePoint);
  EXPECT_LT(reconstruction_error(a, factor(a)), 1e-10);
}

TEST(SupernodalLu, ReconstructsGrid3d) {
  const CsrMatrix a = make_grid3d(3, 3, 4, Stencil3d::kSevenPoint);
  EXPECT_LT(reconstruction_error(a, factor(a)), 1e-10);
}

TEST(SupernodalLu, ReconstructsRandoms) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CsrMatrix a = make_random_symmetric(48, 3.0, seed);
    EXPECT_LT(reconstruction_error(a, factor(a)), 1e-10) << "seed " << seed;
  }
}

TEST(SupernodalLu, NarrowSupernodesStillCorrect) {
  const CsrMatrix a = make_grid2d(5, 7, Stencil2d::kFivePoint);
  SupernodeOptions opt;
  opt.max_width = 1;  // fully scalar
  opt.relax_width = 0;
  EXPECT_LT(reconstruction_error(a, factor(a, opt)), 1e-10);
}

TEST(SupernodalLu, WideRelaxationStillCorrect) {
  const CsrMatrix a = make_grid2d(6, 6, Stencil2d::kFivePoint);
  SupernodeOptions opt;
  opt.relax_width = 16;
  opt.max_width = 24;
  EXPECT_LT(reconstruction_error(a, factor(a, opt)), 1e-10);
}

TEST(SupernodalLu, SolveFlopsPositiveAndScalesWithRhs) {
  const CsrMatrix a = make_grid2d(6, 6, Stencil2d::kFivePoint);
  const auto f = factor(a);
  const double f1 = f.solve_flops(1);
  const double f50 = f.solve_flops(50);
  EXPECT_GT(f1, 0);
  EXPECT_DOUBLE_EQ(f50, 50.0 * f1);
}

TEST(AnalyzeAndFactor, EndToEndOnPaperMatrix) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  EXPECT_TRUE(is_permutation(fs.perm));
  EXPECT_TRUE(fs.tree.check_invariants(a.rows()));
  EXPECT_EQ(fs.lu.n(), a.rows());
}

TEST(AnalyzeAndFactor, SupernodesRespectTreeBoundaries) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  // Every supernode must live inside exactly one tracked tree node range.
  for (Idx k = 0; k < fs.lu.num_supernodes(); ++k) {
    const Idx lo = fs.lu.sym.part.first_col(k);
    const Idx hi = lo + fs.lu.sym.part.width(k) - 1;
    EXPECT_EQ(fs.tree.node_of_column(lo), fs.tree.node_of_column(hi))
        << "supernode " << k << " straddles a separator boundary";
  }
}

TEST(AnalyzeAndFactor, ExpertOptionsPipeline) {
  // Expert-options pipeline: tight supernodes, caller breaks overwritten.
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  AnalyzeOptions opt;
  opt.nd.levels = 2;
  opt.supernode.max_width = 24;
  opt.supernode.forced_breaks = {1, 2, 3};  // must be ignored/overwritten
  const FactoredSystem fs = analyze_and_factor(a, opt);
  EXPECT_TRUE(is_permutation(fs.perm));
  for (Idx k = 0; k < fs.lu.num_supernodes(); ++k) {
    EXPECT_LE(fs.lu.sym.part.width(k), 24);
  }
  // Still solves correctly.
  std::vector<Real> b(static_cast<size_t>(a.rows()), 1.0);
  const auto x = solve_system_seq(fs, b);
  EXPECT_LT(relative_residual(a, x, b), 1e-10);
}

TEST(SupernodalLu, NonFiniteInputThrowsNamingTheEntry) {
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();
  const struct {
    Idx r, c;
    Real v;
    const char* where;
  } cases[] = {{2, 2, nan, "row 2, column 2"},
               {2, 2, inf, "row 2, column 2"},
               {1, 2, nan, "row 1, column 2"}};
  for (const auto& tc : cases) {
    const CsrMatrix a = test::tridiagonal_with(tc.r, tc.c, tc.v);
    try {
      factor(a);
      ADD_FAILURE() << "no throw for " << tc.v << " at " << tc.where;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(tc.where), std::string::npos) << e.what();
    }
    EXPECT_THROW(analyze_and_factor(a, 0), std::invalid_argument) << tc.where;
  }
}

/// Bitwise equality of all five factor arrays.
::testing::AssertionResult same_factor_bits(const SupernodalLU& x, const SupernodalLU& y) {
  using Arrays = std::vector<std::vector<Real>> SupernodalLU::*;
  const struct {
    Arrays arrays;
    const char* name;
  } all[] = {{&SupernodalLU::diag, "diag"},
             {&SupernodalLU::diag_linv, "diag_linv"},
             {&SupernodalLU::diag_uinv, "diag_uinv"},
             {&SupernodalLU::lpanel, "lpanel"},
             {&SupernodalLU::upanel, "upanel"}};
  for (const auto& [arrays, name] : all) {
    if ((x.*arrays).size() != (y.*arrays).size()) {
      return ::testing::AssertionFailure() << name << ": supernode counts differ";
    }
    for (size_t k = 0; k < (x.*arrays).size(); ++k) {
      if (auto r = test::bitwise_equal((x.*arrays)[k], (y.*arrays)[k]); !r) {
        return ::testing::AssertionFailure() << name << "[" << k << "]: " << r.message();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SupernodalLu, BitsDoNotDependOnThreadCount) {
  // factor_supernodal uses one thread per CPU of the calling thread's
  // affinity mask. A thread pinned to one CPU runs every step serially; the
  // test thread runs the heavy steps of these kSmall matrices on all CPUs.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &mask)) ++first_cpu;
  if (CPU_COUNT(&mask) == 1) {
    std::cout << "note: one CPU in the affinity mask, both factorizations are serial\n";
  }
  for (const PaperMatrix pm : {PaperMatrix::kGa19As19H42, PaperMatrix::kS2D9pt2048}) {
    const CsrMatrix a = make_paper_matrix(pm, MatrixScale::kSmall);
    std::optional<FactoredSystem> serial;
    std::thread pinned([&] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(first_cpu, &one);
      if (sched_setaffinity(0, sizeof one, &one) == 0) serial.emplace(analyze_and_factor(a, 3));
    });
    pinned.join();
    ASSERT_TRUE(serial.has_value()) << "could not pin a thread to CPU " << first_cpu;
    const FactoredSystem parallel = analyze_and_factor(a, 3);
    EXPECT_EQ(parallel.perm, serial->perm);
    EXPECT_TRUE(same_factor_bits(parallel.lu, serial->lu)) << paper_matrix_name(pm);
  }
}

TEST(SupernodalLu, ZeroPivotAfterParallelStepsThrowsNamingTheSupernode) {
  // A dense, diagonally dominant 300 x 300 block, whose 96-wide supernodes
  // take steps of millions of flops (run on the pool when the host has more
  // than one CPU), then an exactly singular 2 x 2 block: [1 1; 1 1].
  constexpr Idx n = 300;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<Real> uni(-1.0, 1.0);
  CooMatrix coo;
  coo.rows = coo.cols = n + 2;
  for (Idx i = 0; i < n; ++i) {
    for (Idx j = 0; j < n; ++j) coo.add(i, j, i == j ? Real{n} : uni(rng));
  }
  for (const Idx i : {n, n + 1}) {
    for (const Idx j : {n, n + 1}) coo.add(i, j, 1.0);
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const auto parent = elimination_tree(a);
  SymbolicStructure sym =
      block_symbolic(a, find_supernodes(parent, cholesky_col_counts(a, parent), {}));
  ASSERT_GE(sym.part.width(0), 64);
  ASSERT_GT(sym.panel_rows[0], 0);
  const Idx singular = sym.part.col_to_sn[static_cast<size_t>(n + 1)];
  ASSERT_GT(singular, 0);
  try {
    factor_supernodal(a, std::move(sym));
    ADD_FAILURE() << "no throw for the singular block";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "factor_supernodal: zero or non-finite pivot in supernode " +
                  std::to_string(singular));
  }
}

TEST(AnalyzeAndFactor, ZeroPivotThrows) {
  // A singular matrix: a 2x2 zero block on the diagonal after elimination.
  CooMatrix coo;
  coo.rows = coo.cols = 2;
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 1.0);  // exactly singular
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_THROW(analyze_and_factor(a, 0), std::runtime_error);
}

}  // namespace
}  // namespace sptrsv
