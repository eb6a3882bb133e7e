#include <gtest/gtest.h>

#include "core/sptrsv3d.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

using test::bitwise_equal;
using test::message_counts_identical;
using test::random_rhs;
using test::test_machine;

constexpr RunOptions kDet{.seed = 0};

double mean_cat(const Cluster::Result& r, TimeCategory c) {
  return r.mean_category(c);
}

/// Fig 5-6 accounting guard: degrade the inter-grid (Z) links 10x and the
/// breakdown must charge the slowdown to kZComm — not to kXyComm or kFp.
TEST(Perturbation, ZLinkDegradationIsAttributedToZComm) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 3);
  const auto b = random_rhs(a.rows(), 1, 17);

  SolveConfig cfg;
  cfg.shape = {2, 2, 4};
  cfg.algorithm = Algorithm3d::kProposed;
  cfg.run = kDet;

  const auto base = solve_system_3d(fs, b, cfg, test_machine());

  MachineModel degraded = test_machine();
  PerturbationModel::LinkDegradation dg;
  dg.category = TimeCategory::kZComm;
  dg.latency_factor = 10.0;
  dg.bandwidth_factor = 0.1;
  degraded.perturb.degradations.push_back(dg);
  const auto slow = solve_system_3d(fs, b, cfg, degraded);

  // Functional behaviour untouched: same bits, same traffic.
  EXPECT_TRUE(bitwise_equal(base.x, slow.x));
  EXPECT_TRUE(message_counts_identical(base.run_stats, slow.run_stats));

  // FP time never moves (no compute in a link, no skew configured).
  for (size_t r = 0; r < base.run_stats.ranks.size(); ++r) {
    EXPECT_EQ(base.run_stats.ranks[r].category[static_cast<int>(TimeCategory::kFp)],
              slow.run_stats.ranks[r].category[static_cast<int>(TimeCategory::kFp)])
        << "rank " << r;
  }
  // The L phase runs entirely before any inter-grid traffic, so its
  // per-phase numbers are bitwise unchanged.
  for (size_t r = 0; r < base.rank_times.size(); ++r) {
    EXPECT_EQ(base.rank_times[r].l_fp, slow.rank_times[r].l_fp) << "rank " << r;
    EXPECT_EQ(base.rank_times[r].l_xy, slow.rank_times[r].l_xy) << "rank " << r;
  }

  // The slowdown lands on kZComm, dwarfing any knock-on kXyComm shift.
  const double dz = mean_cat(slow.run_stats, TimeCategory::kZComm) -
                    mean_cat(base.run_stats, TimeCategory::kZComm);
  const double dxy = mean_cat(slow.run_stats, TimeCategory::kXyComm) -
                     mean_cat(base.run_stats, TimeCategory::kXyComm);
  EXPECT_GT(dz, 0.0);
  EXPECT_GT(mean_cat(slow.run_stats, TimeCategory::kZComm),
            2.0 * mean_cat(base.run_stats, TimeCategory::kZComm));
  EXPECT_LT(std::abs(dxy), 0.25 * dz)
      << "Z-link slowdown leaked into the XY accounting";
  EXPECT_GT(slow.makespan, base.makespan);
}

/// Degrading the XY class must not inflate the Z accounting either —
/// the attribution works in both directions.
TEST(Perturbation, XyLinkDegradationIsAttributedToXyComm) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 3);
  const auto b = random_rhs(a.rows(), 1, 18);

  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.algorithm = Algorithm3d::kProposed;
  cfg.run = kDet;

  const auto base = solve_system_3d(fs, b, cfg, test_machine());

  MachineModel degraded = test_machine();
  PerturbationModel::LinkDegradation dg;
  dg.category = TimeCategory::kXyComm;
  dg.latency_factor = 10.0;
  degraded.perturb.degradations.push_back(dg);
  const auto slow = solve_system_3d(fs, b, cfg, degraded);

  EXPECT_TRUE(bitwise_equal(base.x, slow.x));
  const double dxy = mean_cat(slow.run_stats, TimeCategory::kXyComm) -
                     mean_cat(base.run_stats, TimeCategory::kXyComm);
  EXPECT_GT(dxy, 0.0);
  for (size_t r = 0; r < base.run_stats.ranks.size(); ++r) {
    EXPECT_EQ(base.run_stats.ranks[r].category[static_cast<int>(TimeCategory::kFp)],
              slow.run_stats.ranks[r].category[static_cast<int>(TimeCategory::kFp)]);
  }
}

/// A degradation window that closes before the solve starts is a no-op.
TEST(Perturbation, ClosedWindowIsInert) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const auto b = random_rhs(a.rows(), 1, 19);

  SolveConfig cfg;
  cfg.shape = {2, 2, 1};
  cfg.run = kDet;

  MachineModel m = test_machine();
  PerturbationModel::LinkDegradation dg;
  dg.all_categories = true;
  dg.vt_begin = 0.0;
  dg.vt_end = 0.0;  // empty window
  dg.latency_factor = 100.0;
  m.perturb.degradations.push_back(dg);

  const auto base = solve_system_3d(fs, b, cfg, test_machine());
  const auto windowed = solve_system_3d(fs, b, cfg, m);
  EXPECT_TRUE(test::outcomes_identical(base, windowed));
}

/// Rank compute skew shows up in kFp and nowhere in the message counters.
TEST(Perturbation, ComputeSkewInflatesFpOnly) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, 2);
  const auto b = random_rhs(a.rows(), 1, 20);

  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = RunOptions{.seed = 11};

  MachineModel m = test_machine();
  m.perturb.compute_skew = 1.0;  // up to 2x slower FP per rank

  const auto base = solve_system_3d(fs, b, cfg, test_machine());
  const auto skewed = solve_system_3d(fs, b, cfg, m);
  EXPECT_TRUE(bitwise_equal(base.x, skewed.x));
  EXPECT_TRUE(message_counts_identical(base.run_stats, skewed.run_stats));
  EXPECT_GT(mean_cat(skewed.run_stats, TimeCategory::kFp),
            mean_cat(base.run_stats, TimeCategory::kFp));
}

}  // namespace
}  // namespace sptrsv
