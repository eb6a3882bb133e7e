#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "sparse/generators.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

/// Randomized sweep over the pipeline's configuration space: supernode
/// width caps, relaxation, ND depth, grid shapes, algorithms, and RHS
/// counts, all checked against the sequential solver. Catches interactions
/// (e.g. scalar supernodes with wide grids, deep trees with tiny leaves)
/// that the targeted tests do not.

struct FuzzCase {
  std::uint64_t seed;
  Idx max_width;
  Idx relax;
  int nd_levels;
  Grid3dShape shape;
  Algorithm3d alg;
  Idx nrhs;
  /// Fuzzed schedule-exploration knobs, applied to the *faulty* run of the
  /// ledger test — so crash/delivery faults and grant-order perturbation are
  /// exercised together against the FIFO clean run.
  SchedulePolicy policy;
  std::uint64_t schedule_seed;
  int priority_points;
  int delay_budget;
  std::string name;
};

std::vector<FuzzCase> make_cases() {
  std::vector<FuzzCase> cases;
  std::mt19937_64 rng(0xF00D);
  const std::vector<Grid3dShape> shapes{{1, 1, 2}, {2, 1, 4}, {1, 3, 2},
                                        {2, 2, 2}, {3, 2, 1}, {1, 1, 8}};
  for (int i = 0; i < 12; ++i) {
    FuzzCase c;
    c.seed = rng();
    c.max_width = std::uniform_int_distribution<Idx>(1, 40)(rng);
    c.relax = std::uniform_int_distribution<Idx>(0, 12)(rng);
    c.nd_levels = std::uniform_int_distribution<int>(3, 4)(rng);
    c.shape = shapes[static_cast<size_t>(
        std::uniform_int_distribution<int>(0, static_cast<int>(shapes.size()) - 1)(rng))];
    c.alg = (i % 2 == 0) ? Algorithm3d::kProposed : Algorithm3d::kBaseline;
    c.nrhs = std::uniform_int_distribution<Idx>(1, 3)(rng);
    const int pol = std::uniform_int_distribution<int>(0, 2)(rng);
    c.policy = pol == 0   ? SchedulePolicy::kFifo
               : pol == 1 ? SchedulePolicy::kRandomPriority
                          : SchedulePolicy::kDelayBounded;
    c.schedule_seed = rng();
    c.priority_points = std::uniform_int_distribution<int>(0, 6)(rng);
    c.delay_budget = std::uniform_int_distribution<int>(0, 24)(rng);
    c.name = "case" + std::to_string(i) + "_w" + std::to_string(c.max_width) + "_r" +
             std::to_string(c.relax) + "_p" + std::to_string(c.shape.px) + "x" +
             std::to_string(c.shape.py) + "x" + std::to_string(c.shape.pz) +
             (c.alg == Algorithm3d::kProposed ? "_new" : "_base") + "_" +
             schedule_policy_name(c.policy);
    cases.push_back(std::move(c));
  }
  return cases;
}

class ConfigFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ConfigFuzzTest, DistributedMatchesSequential) {
  const FuzzCase& c = GetParam();
  const CsrMatrix a = make_grid2d(14, 14, Stencil2d::kNinePoint, {.seed = c.seed});

  AnalyzeOptions aopt;
  aopt.nd.levels = c.nd_levels;
  aopt.supernode.max_width = c.max_width;
  aopt.supernode.relax_width = c.relax;
  const FactoredSystem fs = analyze_and_factor(a, aopt);

  const std::vector<Real> b = test::random_rhs(a.rows(), c.nrhs, c.seed ^ 1);

  SolveConfig cfg;
  cfg.shape = c.shape;
  cfg.algorithm = c.alg;
  cfg.nrhs = c.nrhs;
  const DistSolveOutcome out = solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());
  const auto ref = solve_system_seq(fs, b, c.nrhs);
  Real worst = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    worst = std::max(worst, std::abs(out.x[i] - ref[i]));
  }
  EXPECT_LT(worst, 1e-9);
}

TEST_P(ConfigFuzzTest, CleanLedgerInvariantUnderCrashAndDeliveryFaults) {
  const FuzzCase& c = GetParam();
  const CsrMatrix a = make_grid2d(14, 14, Stencil2d::kNinePoint, {.seed = c.seed});

  AnalyzeOptions aopt;
  aopt.nd.levels = c.nd_levels;
  aopt.supernode.max_width = c.max_width;
  aopt.supernode.relax_width = c.relax;
  const FactoredSystem fs = analyze_and_factor(a, aopt);

  const std::vector<Real> b = test::random_rhs(a.rows(), c.nrhs, c.seed ^ 1);

  SolveConfig cfg;
  cfg.shape = c.shape;
  cfg.algorithm = c.alg;
  cfg.nrhs = c.nrhs;
  cfg.run = RunOptions{.seed = c.seed};
  const DistSolveOutcome clean =
      solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());

  // Same solve under a randomly drawn combination of delivery faults, a
  // crash schedule, and a fuzzed schedule-exploration policy. The whole
  // point of the two-ledger design (and of the commit fence under policy
  // grant orders) is that none of this can touch the clean ledger: solution
  // bits, clean fingerprint and message counts must match the fault-free
  // FIFO run for every sampled config.
  cfg.run.schedule = c.policy;
  cfg.run.schedule_seed = c.schedule_seed;
  cfg.run.priority_points = c.priority_points;
  cfg.run.delay_budget = c.delay_budget;
  MachineModel m = MachineModel::cori_haswell();
  std::mt19937_64 knobs(c.seed ^ 0xC7A5);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  m.perturb.drop_prob = 0.10 * u01(knobs);
  m.perturb.dup_prob = 0.05 * u01(knobs);
  m.perturb.corrupt_prob = 0.02 * u01(knobs);
  m.perturb.reorder_prob = 0.05 * u01(knobs);
  m.perturb.reorder_window = 5e-6;
  const int nranks = c.shape.px * c.shape.py * c.shape.pz;
  const int victim = nranks > 1 ? 1 + static_cast<int>(knobs() %
                                      static_cast<std::uint64_t>(nranks - 1))
                                : -1;
  if (victim >= 0) {
    // Mid-solve on the victim's own clock; recoverable (one crash, a live
    // buddy, spares available).
    const double t =
        (0.25 + 0.5 * u01(knobs)) *
        clean.run_stats.ranks[static_cast<size_t>(victim)].vtime;
    m.perturb.crashes.push_back({victim, t});
  }
  const DistSolveOutcome faulty = solve_system_3d(fs, b, cfg, m);

  ASSERT_EQ(clean.x.size(), faulty.x.size());
  for (size_t i = 0; i < clean.x.size(); ++i) {
    ASSERT_EQ(std::memcmp(&clean.x[i], &faulty.x[i], sizeof(Real)), 0)
        << "solution bit " << i << " moved under faults";
  }
  EXPECT_EQ(clean.run_stats.fingerprint(), faulty.run_stats.fingerprint());
  EXPECT_DOUBLE_EQ(clean.run_stats.makespan(), faulty.run_stats.makespan());
  if (victim >= 0) {
    EXPECT_GE(faulty.run_stats.recovery_stats().crashes, 1);
    EXPECT_GT(faulty.run_stats.fault_makespan(), faulty.run_stats.makespan());
  }
}

TEST_P(ConfigFuzzTest, CleanLedgerInvariantUnderElasticDegradation) {
  const FuzzCase& c = GetParam();
  const CsrMatrix a = make_grid2d(14, 14, Stencil2d::kNinePoint, {.seed = c.seed});

  AnalyzeOptions aopt;
  aopt.nd.levels = c.nd_levels;
  aopt.supernode.max_width = c.max_width;
  aopt.supernode.relax_width = c.relax;
  const FactoredSystem fs = analyze_and_factor(a, aopt);

  const std::vector<Real> b = test::random_rhs(a.rows(), c.nrhs, c.seed ^ 1);

  SolveConfig cfg;
  cfg.shape = c.shape;
  cfg.algorithm = c.alg;
  cfg.nrhs = c.nrhs;
  cfg.run = RunOptions{.seed = c.seed};
  const DistSolveOutcome clean =
      solve_system_3d(fs, b, cfg, MachineModel::cori_haswell());

  // The harshest sampled regime: an empty spare pool with elastic degrade
  // armed, delivery faults, an explicit mid-solve death, a Poisson crash
  // MTBF on top, and an SDC stream corrected by ABFT. Whatever fires, the
  // only legitimate terminal verdict is kNoSurvivors (the survivor quorum
  // genuinely ran out); a completed run must match the fault-free twin bit
  // for bit on the clean ledger.
  cfg.run.degrade = true;
  cfg.run.abft = true;
  MachineModel m = MachineModel::cori_haswell();
  m.recovery.spare_ranks = 0;
  std::mt19937_64 knobs(c.seed ^ 0xDE64);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  m.perturb.drop_prob = 0.10 * u01(knobs);
  m.perturb.dup_prob = 0.05 * u01(knobs);
  m.perturb.corrupt_prob = 0.02 * u01(knobs);
  m.perturb.reorder_prob = 0.05 * u01(knobs);
  m.perturb.reorder_window = 5e-6;
  m.perturb.sdc_rate = 2e4 * u01(knobs);
  // Rare extra deaths beyond the scheduled one (expected << 1 per rank).
  m.perturb.crash_mtbf = (4.0 + 8.0 * u01(knobs)) * clean.run_stats.makespan();
  const int nranks = c.shape.px * c.shape.py * c.shape.pz;
  const int victim = nranks > 1 ? 1 + static_cast<int>(knobs() %
                                      static_cast<std::uint64_t>(nranks - 1))
                                : -1;
  if (victim >= 0) {
    const double t =
        (0.25 + 0.5 * u01(knobs)) *
        clean.run_stats.ranks[static_cast<size_t>(victim)].vtime;
    m.perturb.crashes.push_back({victim, t});
  }
  try {
    const DistSolveOutcome faulty = solve_system_3d(fs, b, cfg, m);
    ASSERT_EQ(clean.x.size(), faulty.x.size());
    for (size_t i = 0; i < clean.x.size(); ++i) {
      ASSERT_EQ(std::memcmp(&clean.x[i], &faulty.x[i], sizeof(Real)), 0)
          << "solution bit " << i << " moved under elastic degradation";
    }
    EXPECT_EQ(clean.run_stats.fingerprint(), faulty.run_stats.fingerprint());
    EXPECT_DOUBLE_EQ(clean.run_stats.makespan(), faulty.run_stats.makespan());
    EXPECT_EQ(faulty.run_stats.recovery_stats().spares_used, 0);
    if (victim >= 0) {
      // The scheduled death had no spare: it must have degraded.
      EXPECT_GE(faulty.run_stats.degradation_stats().degrades, 1);
      EXPECT_GE(faulty.run_stats.degradation_stats().ranks_lost, 1);
      EXPECT_GT(faulty.run_stats.fault_makespan(), faulty.run_stats.makespan());
    }
  } catch (const FaultError& fe) {
    // Only a genuinely exhausted survivor quorum may be terminal here —
    // never a spare-pool or buddy verdict, which degrade absorbs.
    EXPECT_EQ(fe.report.kind, FaultKind::kNoSurvivors) << fe.report.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConfigFuzzTest, ::testing::ValuesIn(make_cases()),
                         [](const auto& info) { return info.param.name; });

/// Invalid schedule-knob combinations must be rejected before any rank
/// runs, with std::invalid_argument naming the problem — never an assert, a
/// hang, or a misattributed FaultReport.
TEST(ScheduleKnobValidation, NonDeterministicModeThrows) {
  // The scheduler is the only execution mode; asking for anything else is
  // a caller bug.
  RunOptions o;
  o.deterministic = false;
  EXPECT_THROW(Cluster::run(2, test::test_machine(), [](Comm&) {}, o),
               std::invalid_argument);
}

TEST(ScheduleKnobValidation, NegativeKnobsThrow) {
  RunOptions o{};
  o.priority_points = -1;
  EXPECT_THROW(Cluster::run(2, test::test_machine(), [](Comm&) {}, o),
               std::invalid_argument);
  o.priority_points = 2;
  o.delay_budget = -3;
  EXPECT_THROW(Cluster::run(2, test::test_machine(), [](Comm&) {}, o),
               std::invalid_argument);
}

TEST(ScheduleKnobValidation, ReplayGrantOutOfRangeThrows) {
  ScheduleCertificate cert;
  cert.grants = {0, 1, 7};  // rank 7 does not exist in a world of 2
  RunOptions o{};
  o.replay_schedule = &cert;
  EXPECT_THROW(Cluster::run(2, test::test_machine(), [](Comm&) {}, o),
               std::invalid_argument);
}

TEST(ScheduleKnobValidation, CertificateParseRejectsMalformedText) {
  EXPECT_THROW(ScheduleCertificate::parse(""), std::invalid_argument);
  EXPECT_THROW(ScheduleCertificate::parse("bogus 0 0"), std::invalid_argument);
  EXPECT_THROW(ScheduleCertificate::parse("fifo 0 3 1 2"), std::invalid_argument);
  EXPECT_THROW(ScheduleCertificate::parse("fifo 0 1 2 junk"), std::invalid_argument);
  // A grant count far beyond the text is a truncated list, not an allocation.
  EXPECT_THROW(ScheduleCertificate::parse("fifo 0 1000000000000"), std::invalid_argument);
  EXPECT_THROW(ScheduleCertificate::parse("fifo 0 18446744073709551615"),
               std::invalid_argument);
  const ScheduleCertificate c = ScheduleCertificate::parse("random_priority 42 3 0 1 0");
  EXPECT_EQ(c.policy, SchedulePolicy::kRandomPriority);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_EQ(c.grants, (std::vector<std::int32_t>{0, 1, 0}));
  EXPECT_EQ(ScheduleCertificate::parse(c.to_string()).to_string(), c.to_string());
}

}  // namespace
}  // namespace sptrsv
